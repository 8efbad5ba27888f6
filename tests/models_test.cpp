// Model tests: every number the paper derives in Sec. III must come out of
// the models module exactly.
#include <gtest/gtest.h>

#include "models/cache_model.hpp"
#include "models/code_balance.hpp"
#include "models/machine.hpp"
#include "models/perf_model.hpp"
#include "util/timer.hpp"

namespace {

using namespace emwd::models;

TEST(CodeBalance, PaperEq8And9) {
  EXPECT_DOUBLE_EQ(naive_bytes_per_lup(), 1344.0);    // Eq. 8
  EXPECT_DOUBLE_EQ(spatial_bytes_per_lup(), 1216.0);  // Eq. 9
  EXPECT_EQ(kFlopsPerLup, 248);
}

TEST(CodeBalance, PaperCountsFortyArraysAt640BytesPerCell) {
  EXPECT_EQ(kPaperArrays, 40);           // 12 fields + 28 coefficient/source arrays
  EXPECT_EQ(kPaperBytesPerCell, 640);    // paper Sec. I-A
}

TEST(CodeBalance, PaperArithmeticIntensities) {
  // "0.18 flops/byte" naive, "0.20" with optimal spatial blocking.
  EXPECT_NEAR(intensity(naive_bytes_per_lup()), 0.18, 0.005);
  EXPECT_NEAR(intensity(spatial_bytes_per_lup()), 0.20, 0.005);
}

TEST(CodeBalance, PaperEq10Prediction) {
  // Pmem = 50 GB/s / 1216 B/LUP = 41 MLUP/s.
  EXPECT_NEAR(pmem_mlups(50e9, spatial_bytes_per_lup()), 41.0, 0.2);
}

TEST(CodeBalance, DiamondEq12Values) {
  // Hand-evaluated Eq. 12: dw=4 -> 16*(6*7 + 172)/8 = 428 B/LUP.
  EXPECT_DOUBLE_EQ(diamond_bytes_per_lup(4), 428.0);
  // dw=8 -> 16*(6*15 + 332)/32 = 211.
  EXPECT_DOUBLE_EQ(diamond_bytes_per_lup(8), 211.0);
  // Monotone decreasing in dw; large dw approaches the asymptote
  // 16*(12+40)*2/dw -> below spatial quickly.
  double prev = 1e9;
  for (int dw = 1; dw <= 32; ++dw) {
    const double b = diamond_bytes_per_lup(dw);
    EXPECT_LT(b, prev);
    prev = b;
  }
  EXPECT_LT(diamond_bytes_per_lup(8), spatial_bytes_per_lup() / 5.0);
}

TEST(CodeBalance, PaperSixfoldReductionClaim) {
  // Sec. IV-C: "Compared to the spatially blocked code it has a 6x lower
  // code balance" — holds for the auto-tuned dw range (8-16).
  EXPECT_GE(spatial_bytes_per_lup() / diamond_bytes_per_lup(12), 6.0);
}

TEST(CodeBalance, ExactVariantCloseToPaperVariant) {
  for (int dw : {2, 4, 8, 16}) {
    const double paper = diamond_bytes_per_lup(dw);
    const double exact = diamond_bytes_per_lup_exact(dw);
    EXPECT_NEAR(exact, paper, 0.10 * paper) << "dw=" << dw;
    EXPECT_GE(exact, paper);  // our tiles write one extra Ê column
  }
}

TEST(CacheModel, PaperEq11Example) {
  // Paper Sec. III-C: Dw=4, BZ=4, Ww=7 (Wavefront.WwFormulaMatchesPaper)
  // gives Cs = 14912 * Nx bytes.
  EXPECT_DOUBLE_EQ(cache_block_bytes(4, 4, 1), 14912.0);
  EXPECT_DOUBLE_EQ(cache_block_bytes(4, 4, 480), 14912.0 * 480);
}

TEST(CacheModel, PaperSecIIICScenarios) {
  // "Using BZ = 6 would require three thread groups ... the minimum diamond
  // width Dw = 4 requires a cache block size Cs = 30 MiB" at Nx = 480:
  // three concurrent tiles of Eq. 11 size.
  const double cs_bz6_3tg = 3.0 * cache_block_bytes(4, 6, 480);
  EXPECT_NEAR(cs_bz6_3tg / (1024.0 * 1024.0), 30.0, 3.0);
  // "we can set BZ = 1 and use nine threads per cache block ... a Dw = 8
  // that uses Cs = 20 MiB": two thread groups of nine.
  const double cs_bz1_d8_2tg = 2.0 * cache_block_bytes(8, 1, 480);
  EXPECT_NEAR(cs_bz1_d8_2tg / (1024.0 * 1024.0), 20.0, 2.5);
  // The BZ=1/Dw=8 two-group setup fits the usable half of the 45 MiB L3;
  // the BZ=6/Dw=4 three-group setup does not (the paper's argument for
  // multi-dimensional intra-tile parallelism).
  const std::uint64_t l3 = 45ull << 20;
  EXPECT_TRUE(fits_cache(8, 1, 480, l3, 2));
  EXPECT_FALSE(fits_cache(4, 6, 480, l3, 3));
}

TEST(CacheModel, MonotoneInParameters) {
  for (int dw = 1; dw < 16; ++dw) {
    EXPECT_LT(cache_block_bytes(dw, 2, 64), cache_block_bytes(dw + 1, 2, 64));
  }
  for (int bz = 1; bz < 16; ++bz) {
    EXPECT_LT(cache_block_bytes(4, bz, 64), cache_block_bytes(4, bz + 1, 64));
  }
  // Linear in Nx.
  EXPECT_DOUBLE_EQ(cache_block_bytes(4, 2, 128), 2.0 * cache_block_bytes(4, 2, 64));
}

TEST(CacheModel, MaxDwFitting) {
  const std::uint64_t l3 = 45ull << 20;
  const int d1 = max_dw_fitting(1, 480, l3, 1);
  const int d9 = max_dw_fitting(9, 480, l3, 1);
  EXPECT_GT(d1, d9);  // smaller wavefront window -> larger diamonds fit
  // Sharing the cache across more groups shrinks the feasible diamond.
  EXPECT_GE(max_dw_fitting(1, 480, l3, 1), max_dw_fitting(1, 480, l3, 6));
  EXPECT_EQ(max_dw_fitting(1, 480, 128, 1), 0);  // absurdly small cache
}

TEST(Machine, Haswell18MatchesPaperTestbed) {
  const Machine m = haswell18();
  EXPECT_EQ(m.cores, 18);
  EXPECT_DOUBLE_EQ(m.bandwidth_bytes_per_s, 50e9);
  EXPECT_EQ(m.llc_bytes, 45ull << 20);
  EXPECT_NEAR(m.ghz, 2.3, 1e-9);
  EXPECT_FALSE(m.calibration.has_value());  // the paper's constants, no probe
}

TEST(Machine, HostDetects) {
  const Machine m = host_machine();
  EXPECT_GE(m.cores, 1);
  EXPECT_GT(m.llc_bytes, 0u);
}

TEST(Machine, HostIsCalibratedOnceAndCached) {
  const Machine first = host_machine();
  ASSERT_TRUE(first.calibration.has_value());
  const Calibration& k = *first.calibration;
  EXPECT_GT(k.l2_mlups, 0.0);
  EXPECT_GT(k.l3_mlups, 0.0);
  EXPECT_GE(k.row_overhead_ns, 0.0);
  EXPECT_GT(k.drag_tx, 0.0);
  EXPECT_GT(k.drag_tz, 0.0);
  EXPECT_GT(k.drag_tc, 0.0);
  EXPECT_GT(first.bandwidth_bytes_per_s, 0.0);
  EXPECT_GT(k.seconds, 0.0);
  // A second call returns the cached values, without probing again: a probe
  // takes k.seconds; the copy takes microseconds.
  emwd::util::Timer t;
  const Machine second = host_machine();
  EXPECT_LT(t.seconds(), k.seconds / 10.0);
  ASSERT_TRUE(second.calibration.has_value());
  EXPECT_EQ(second.bandwidth_bytes_per_s, first.bandwidth_bytes_per_s);
  EXPECT_EQ(second.calibration->l2_mlups, k.l2_mlups);
  EXPECT_EQ(second.calibration->l3_mlups, k.l3_mlups);
  EXPECT_EQ(second.calibration->row_overhead_ns, k.row_overhead_ns);
  EXPECT_EQ(second.calibration->drag_tc, k.drag_tc);
  EXPECT_EQ(second.calibration->seconds, k.seconds);
}

TEST(PerfModel, SpatialSaturatesLikeThePaper) {
  // Fig. 6a: the spatially blocked code saturates at ~40 MLUP/s by 6 cores.
  const Machine m = haswell18();
  const auto p6 = predict(m, 6, spatial_bytes_per_lup());
  const auto p18 = predict(m, 18, spatial_bytes_per_lup());
  EXPECT_NEAR(p6.mlups, 41.0, 3.0);
  EXPECT_NEAR(p18.mlups, 41.0, 1.0);
  EXPECT_TRUE(p18.bandwidth_bound);
  // One core is compute-bound, far from saturation.
  const auto p1 = predict(m, 1, spatial_bytes_per_lup());
  EXPECT_FALSE(p1.bandwidth_bound);
  EXPECT_LT(p1.mlups, 15.0);
}

TEST(PerfModel, MwdDecouplesFromBandwidth) {
  // Fig. 6a: MWD reaches ~130 MLUP/s on the full 18-core chip (75 % parallel
  // efficiency), using well under the 50 GB/s memory bandwidth.
  const Machine m = haswell18();
  const double bc = diamond_bytes_per_lup(12);
  const auto p = predict(m, 18, bc, /*tiled=*/true);
  EXPECT_FALSE(p.bandwidth_bound);
  EXPECT_NEAR(p.mlups, 130.0, 15.0);
  EXPECT_LT(p.mem_bandwidth_bytes_per_s, 0.62 * m.bandwidth_bytes_per_s);
}

TEST(PerfModel, ParallelEfficiency) {
  EXPECT_DOUBLE_EQ(parallel_efficiency(1, 0.05), 1.0);
  EXPECT_NEAR(parallel_efficiency(18, 0.02), 0.746, 0.01);
}

TEST(PerfModel, DegradedCodeBalance) {
  const double ideal = diamond_bytes_per_lup(8);
  EXPECT_DOUBLE_EQ(degraded_bytes_per_lup(ideal, 0.5), ideal);
  EXPECT_DOUBLE_EQ(degraded_bytes_per_lup(ideal, 1.0), ideal);
  const double d15 = degraded_bytes_per_lup(ideal, 1.5);
  EXPECT_GT(d15, ideal);
  EXPECT_LT(d15, spatial_bytes_per_lup());
  // Full overflow converges to the spatial balance.
  EXPECT_DOUBLE_EQ(degraded_bytes_per_lup(ideal, 2.0), spatial_bytes_per_lup());
  EXPECT_DOUBLE_EQ(degraded_bytes_per_lup(ideal, 99.0), spatial_bytes_per_lup());
}

}  // namespace
