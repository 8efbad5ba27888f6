// Parameterized property sweeps (TEST_P): invariants that must hold across
// whole parameter ranges rather than at hand-picked points.
#include <gtest/gtest.h>

// GCC 12 emits a spurious -Wrestrict from inlined std::string concatenation
// in the TEST_P name generators at -O3 (GCC bug 105651).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <tuple>

#include "cachesim/cache.hpp"
#include "cachesim/replay.hpp"
#include "em/coefficients.hpp"
#include "em/pml.hpp"
#include "grid/fieldset.hpp"
#include "models/cache_model.hpp"
#include "models/code_balance.hpp"
#include "models/perf_model.hpp"

namespace {

using namespace emwd;

// ---------------------------------------------------------------- cache --
class CacheConfigSweep
    : public ::testing::TestWithParam<std::tuple<int /*size_kib*/, int /*assoc*/>> {};

TEST_P(CacheConfigSweep, StreamingTouchesEveryLineExactlyOnce) {
  const auto [size_kib, assoc] = GetParam();
  cachesim::CacheConfig cfg;
  cfg.size_bytes = static_cast<std::uint64_t>(size_kib) << 10;
  cfg.associativity = assoc;
  cachesim::Cache cache(cfg);
  // A pure streaming pass over 4x the capacity: one miss per line, no hits,
  // independent of associativity.
  const std::uint64_t lines = (cfg.size_bytes / 64) * 4;
  for (std::uint64_t l = 0; l < lines; ++l) cache.access(l * 64, false);
  EXPECT_EQ(cache.stats().misses(), lines);
  EXPECT_EQ(cache.stats().loads, lines);
}

TEST_P(CacheConfigSweep, ResidentSetNeverExceedsCapacity) {
  const auto [size_kib, assoc] = GetParam();
  cachesim::CacheConfig cfg;
  cfg.size_bytes = static_cast<std::uint64_t>(size_kib) << 10;
  cfg.associativity = assoc;
  cachesim::Cache cache(cfg);
  for (std::uint64_t l = 0; l < 10000; ++l) cache.access((l * 2654435761u) & ~63ull, l % 3 == 0);
  EXPECT_LE(cache.resident_lines(), static_cast<int>(cfg.size_bytes / 64));
}

TEST_P(CacheConfigSweep, WorkingSetWithinCapacityHitsAfterWarmup) {
  const auto [size_kib, assoc] = GetParam();
  cachesim::CacheConfig cfg;
  cfg.size_bytes = static_cast<std::uint64_t>(size_kib) << 10;
  cfg.associativity = assoc;
  cachesim::Cache cache(cfg);
  // Working set = half capacity, uniformly spread across sets.
  const std::uint64_t lines = cfg.size_bytes / 64 / 2;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l) cache.access(l * 64, false);
  }
  // Second and third passes must be all hits: misses == compulsory only.
  EXPECT_EQ(cache.stats().misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CacheConfigSweep,
                         ::testing::Combine(::testing::Values(64, 256, 1024),
                                            ::testing::Values(4, 8, 16)),
                         [](const auto& info) {
                           return std::to_string(std::get<0>(info.param)) + "KiB_w" +
                                  std::to_string(std::get<1>(info.param));
                         });

// ------------------------------------------------------------------ pml --
class PmlSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PmlSweep, ProfileInvariants) {
  const auto [thickness, grading] = GetParam();
  grid::Layout L({16, 16, 48});
  em::PmlSpec spec;
  spec.thickness = thickness;
  spec.grading = grading;
  em::PmlProfiles pml(L, spec, 1.0);
  using kernels::Axis;
  // Interior exactly zero.
  for (int k = thickness; k < 48 - thickness; ++k) {
    ASSERT_DOUBLE_EQ(pml.sigma(Axis::Z, k), 0.0) << "k=" << k;
  }
  // Monotone non-increasing into the domain, symmetric, maximal at faces.
  for (int k = 1; k < thickness; ++k) {
    ASSERT_LE(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, k - 1));
    ASSERT_NEAR(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, 47 - k), 1e-12);
  }
  ASSERT_NEAR(pml.sigma(Axis::Z, 0), pml.sigma_max(), 1e-12);
  // Higher grading concentrates damping toward the face: sigma at
  // mid-shell is a smaller fraction of sigma_max.
  if (thickness >= 4) {
    const double mid_frac = pml.sigma(Axis::Z, thickness / 2) / pml.sigma_max();
    ASSERT_LT(mid_frac, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, PmlSweep,
                         ::testing::Combine(::testing::Values(2, 6, 12),
                                            ::testing::Values(2.0, 3.0, 4.0)),
                         [](const auto& info) {
                           return "t" + std::to_string(std::get<0>(info.param)) + "_m" +
                                  std::to_string(static_cast<int>(std::get<1>(info.param)));
                         });

// ------------------------------------------------------- spatial traffic --
class SpatialBlockSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpatialBlockSweep, NeverWorseThanNaiveOnSameCache) {
  const int by = GetParam();
  grid::Layout L({32, 32, 6});
  const std::uint64_t llc = 1 << 16;
  cachesim::Hierarchy hn = cachesim::Hierarchy::llc_only(llc);
  const auto naive = cachesim::replay_spatial(L, 2, L.ny(), hn);
  cachesim::Hierarchy hs = cachesim::Hierarchy::llc_only(llc);
  const auto spatial = cachesim::replay_spatial(L, 2, by, hs);
  // Allow a tiny margin: very large blocks degenerate to the naive order.
  EXPECT_LE(spatial.bytes_per_lup(), naive.bytes_per_lup() * 1.01) << "by=" << by;
}

INSTANTIATE_TEST_SUITE_P(Blocks, SpatialBlockSweep, ::testing::Values(1, 2, 4, 8, 16, 32));

// ----------------------------------------------------------- mwd traffic --
class MwdTrafficSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MwdTrafficSweep, TrafficBoundedByCompulsoryAndStreaming) {
  const auto [dw, bz] = GetParam();
  grid::Layout L({16, 24, 16});
  exec::MwdParams p;
  p.dw = dw;
  p.bz = bz;
  cachesim::Hierarchy h = cachesim::Hierarchy::llc_only(8ull << 20);
  const auto r = cachesim::replay_mwd(L, 2 * dw, p, h);
  // Lower bound: each array byte must move at least once (compulsory);
  // upper bound: nothing can exceed untiled streaming by much.
  const double cells = 16.0 * 24.0 * 16.0;
  const double steps = 2.0 * dw;
  const double compulsory_bpl = (40 + 12) * 16.0 * cells / (cells * steps);
  EXPECT_GE(r.bytes_per_lup(), compulsory_bpl * 0.9) << "dw=" << dw << " bz=" << bz;
  EXPECT_LE(r.bytes_per_lup(), models::naive_bytes_per_lup() * 1.2)
      << "dw=" << dw << " bz=" << bz;
}

INSTANTIATE_TEST_SUITE_P(Params, MwdTrafficSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1, 2, 4)),
                         [](const auto& info) {
                           return "dw" + std::to_string(std::get<0>(info.param)) + "_bz" +
                                  std::to_string(std::get<1>(info.param));
                         });

// -------------------------------------------------------------- coeffs ---
class MaterialCoeffSweep : public ::testing::TestWithParam<double> {};

TEST_P(MaterialCoeffSweep, ForwardIterationNeverAmplifiesPhysicalMaterials) {
  const double sigma = GetParam();
  const em::ThiimParams params = em::make_params(16.0);
  for (const em::Material& base :
       {em::vacuum(), em::glass(), em::tco(), em::amorphous_silicon(),
        em::microcrystalline_silicon()}) {
    em::Material m = base;
    m.sigma = sigma;
    for (const auto& comp : kernels::kComps) {
      const em::CoeffPair cc = em::compute_coeffs(comp, m, 0.0, 0.0, params);
      ASSERT_LE(std::abs(cc.t), 1.0 + 1e-9)
          << base.name << " sigma=" << sigma << " comp=" << comp.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, MaterialCoeffSweep,
                         ::testing::Values(0.0, 0.01, 0.1, 1.0));

// --------------------------------------------------------------- models --
class PerfModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(PerfModelSweep, PredictionMonotoneInThreadsAndBandwidthCapped) {
  const int threads = GetParam();
  const models::Machine m = models::haswell18();
  for (double bpl : {104.75, 211.0, 428.0, 1216.0, 1344.0}) {
    const auto p = models::predict(m, threads, bpl, true);
    ASSERT_GT(p.mlups, 0.0);
    ASSERT_LE(p.mem_bandwidth_bytes_per_s, m.bandwidth_bytes_per_s * 1.0001);
    if (threads > 1) {
      const auto prev = models::predict(m, threads - 1, bpl, true);
      ASSERT_GE(p.mlups, prev.mlups * 0.999) << "bpl=" << bpl;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PerfModelSweep, ::testing::Range(1, 19));

}  // namespace
