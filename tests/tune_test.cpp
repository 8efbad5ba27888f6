// Auto-tuner tests: parameter space constraints and model-driven selection.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "exec/engine_spec.hpp"
#include "models/cache_model.hpp"
#include "models/code_balance.hpp"
#include "tune/autotuner.hpp"
#include "tune/space.hpp"

namespace {

using namespace emwd;
using tune::Candidate;
using tune::enumerate_candidates;
using tune::SpaceLimits;

TEST(Space, Divisors) {
  EXPECT_EQ(tune::divisors(1), (std::vector<int>{1}));
  EXPECT_EQ(tune::divisors(12), (std::vector<int>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(tune::divisors(18), (std::vector<int>{1, 2, 3, 6, 9, 18}));
}

TEST(Space, CandidatesRespectAllConstraints) {
  const grid::Extents g{128, 64, 64};
  for (int threads : {1, 6, 18}) {
    const auto cands = enumerate_candidates(threads, g);
    ASSERT_FALSE(cands.empty()) << threads;
    for (const auto& p : cands) {
      EXPECT_EQ(p.threads(), threads);
      EXPECT_TRUE(p.tc == 1 || p.tc == 2 || p.tc == 3 || p.tc == 6);
      EXPECT_LE(p.tz, p.bz);
      if (p.tx > 1) {
        EXPECT_GE(g.nx / p.tx, SpaceLimits{}.min_x_per_thread);
      }
      EXPECT_LE(p.dw, g.ny);
      EXPECT_LE(p.bz, g.nz);
      EXPECT_GE(p.dw, 1);
    }
  }
}

TEST(Space, EighteenThreadsIncludePaperConfigurations) {
  // The paper's headline configurations must be reachable: 1WD (18 groups
  // of 1), 18WD (one group of 18 with component parallelism), and mixed
  // x/z/component splits.
  const auto cands = enumerate_candidates(18, {128, 128, 128});
  bool has_1wd = false, has_18wd = false, has_mixed = false;
  for (const auto& p : cands) {
    if (p.num_tgs == 18 && p.tg_size() == 1) has_1wd = true;
    if (p.num_tgs == 1 && p.tg_size() == 18 && p.tc == 3) has_18wd = true;
    if (p.num_tgs == 3 && p.tc == 3 && p.tx == 2) has_mixed = true;
  }
  EXPECT_TRUE(has_1wd);
  EXPECT_TRUE(has_18wd);
  EXPECT_TRUE(has_mixed);
}

TEST(Space, DeterministicOrder) {
  const auto a = enumerate_candidates(6, {64, 64, 64});
  const auto b = enumerate_candidates(6, {64, 64, 64});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].describe(), b[i].describe());
  }
}

TEST(Autotune, ScoreComputesCacheAndBalance) {
  exec::MwdParams p;
  p.dw = 8;
  p.bz = 1;
  p.num_tgs = 2;
  const Candidate c = tune::score_candidate(p, {480, 480, 480}, models::haswell18());
  EXPECT_DOUBLE_EQ(c.cache_bytes, models::cache_block_bytes(8, 1, 480) * 2);
  EXPECT_GT(c.predicted_mlups, 0.0);
  EXPECT_GT(c.overflow, 0.0);
}

TEST(Autotune, PicksAFittingConfigurationOnHaswell) {
  tune::TuneConfig cfg;
  cfg.threads = 18;
  cfg.grid = {384, 384, 384};
  cfg.machine = models::haswell18();
  const auto result = tune::autotune(cfg);
  // The chosen tile set must fit the usable LLC share (Eq. 11 pruning).
  EXPECT_LE(result.best_candidate.overflow, 1.0);
  // And the paper's Fig. 6d/7b behaviour: a healthy diamond width with
  // cache block sharing (at 384^3, per-thread tiles can no longer fit).
  EXPECT_GE(result.best.dw, 4);
  EXPECT_LT(result.best.num_tgs, 18);
}

TEST(Autotune, SharedBlocksWinAtLargeGrids) {
  // Fig. 7b: growing grids force larger thread groups.  Compare the chosen
  // group size at small vs large Nx.
  tune::TuneConfig small;
  small.threads = 18;
  small.grid = {64, 64, 64};
  small.machine = models::haswell18();
  tune::TuneConfig large = small;
  large.grid = {512, 512, 512};
  const auto rs = tune::autotune(small);
  const auto rl = tune::autotune(large);
  EXPECT_GE(rl.best.tg_size(), rs.best.tg_size());
  EXPECT_LE(rl.best_candidate.overflow, 1.0);
}

TEST(Autotune, RankedListIsSortedByScoreWithinFitness) {
  tune::TuneConfig cfg;
  cfg.threads = 6;
  cfg.grid = {128, 128, 128};
  cfg.machine = models::haswell18();
  const auto result = tune::autotune(cfg);
  ASSERT_GT(result.ranked.size(), 1u);
  for (std::size_t i = 1; i < result.ranked.size(); ++i) {
    const bool prev_fits = result.ranked[i - 1].overflow <= 1.0;
    const bool cur_fits = result.ranked[i].overflow <= 1.0;
    EXPECT_GE(static_cast<int>(prev_fits), static_cast<int>(cur_fits));
    if (prev_fits == cur_fits) {
      EXPECT_GE(result.ranked[i - 1].predicted_mlups, result.ranked[i].predicted_mlups);
    }
  }
}

// ------------------------------------------------ calibrated host model

/// A calibrated machine with the terms host_machine() measured on a 4-vCPU
/// Xeon KVM guest (2 MiB L2 per core, 300 MiB reported L3), written in so
/// the picks below do not depend on the host running the test.
models::Machine calibrated_xeon() {
  models::Machine m;
  m.name = "xeon-kvm";
  m.cores = 4;
  m.llc_bytes = 300ull << 20;
  m.bandwidth_bytes_per_s = 29.4e9;
  models::Calibration k;
  k.l2_bytes = 2ull << 20;
  k.threads = 3;
  k.l2_mlups = 29.5;
  k.l3_mlups = 20.5;
  k.row_cells = 128;
  k.row_overhead_ns = 25.0;
  k.drag_tx = 0.48;
  k.drag_tz = 0.44;
  k.drag_tc = 0.39;
  m.calibration = k;
  return m;
}

tune::TuneResult tune_calibrated(const grid::Extents& g, int threads) {
  tune::TuneConfig cfg;
  cfg.threads = threads;
  cfg.grid = g;
  cfg.machine = calibrated_xeon();
  return tune::autotune(cfg);
}

TEST(CalibratedModel, LargeGridPicksOneThreadGroupsWithL2Tiles) {
  // 128^3 on 3 threads (solve_large): three 1-thread groups whose tiles fit
  // the per-core L2, not a 3-thread component split.
  const auto r = tune_calibrated({128, 128, 128}, 3);
  EXPECT_EQ(r.best.tg_size(), 1) << r.best.describe();
  EXPECT_EQ(r.best.num_tgs, 3);
  EXPECT_LE(models::cache_block_bytes(r.best.dw, r.best.bz, 128, models::kEngineArrays),
            static_cast<double>(2ull << 20));
  // Every split class scores below the pick, and no two classes tie (the
  // tie-breaks would otherwise pick the class).
  std::map<std::string, double> best_of_class;
  for (const Candidate& c : r.ranked) {
    const std::string cls = c.params.tc > 1 ? "tc" : c.params.tz > 1 ? "tz"
                            : c.params.tx > 1 ? "tx" : "1wd";
    best_of_class.emplace(cls, c.predicted_mlups);  // ranked: first is best
  }
  ASSERT_EQ(best_of_class.size(), 4u);
  std::set<double> scores;
  for (const auto& [cls, mlups] : best_of_class) {
    scores.insert(mlups);
    if (cls != "1wd") EXPECT_LT(mlups, best_of_class["1wd"]) << cls;
  }
  EXPECT_EQ(scores.size(), 4u);
}

TEST(CalibratedModel, SmallGridKeepsEveryGroupBusy) {
  // 16x16x32 on 3 threads (serve_clients): ny / dw diamonds per wavefront
  // must cover the three groups.
  const auto r = tune_calibrated({16, 16, 32}, 3);
  EXPECT_EQ(r.best.tg_size(), 1) << r.best.describe();
  EXPECT_EQ(r.best.num_tgs, 3);
  EXPECT_GE(16 / r.best.dw, 3) << r.best.describe();
}

TEST(CalibratedModel, OneThreadCellKeepsTheWidestDiamond) {
  // 24x24x64 on 1 thread (sweep_cells): the parent's pick stays.
  const auto r = tune_calibrated({24, 24, 64}, 1);
  EXPECT_EQ(exec::to_string(exec::to_spec(r.best)),
            "mwd(dw=24,bz=1,tx=1,tz=1,tc=1,groups=1)");
}

TEST(CalibratedModel, PaperMachineScoresWithThePaperArrays) {
  // haswell18 has no calibration: Eq. 11 keeps the paper's 40 arrays.
  exec::MwdParams p;
  p.dw = 8;
  p.bz = 2;
  p.num_tgs = 3;
  const Candidate paper = tune::score_candidate(p, {128, 128, 128}, models::haswell18());
  const Candidate host = tune::score_candidate(p, {128, 128, 128}, calibrated_xeon());
  EXPECT_DOUBLE_EQ(paper.cache_bytes, models::cache_block_bytes(8, 2, 128) * 3);
  EXPECT_DOUBLE_EQ(host.cache_bytes,
                   models::cache_block_bytes(8, 2, 128, models::kEngineArrays) * 3);
  EXPECT_LT(host.model_bpl, paper.model_bpl);
}

TEST(Autotune, TimedRefinementRunsAndSelects) {
  tune::TuneConfig cfg;
  cfg.threads = 2;
  cfg.grid = {16, 16, 16};
  cfg.machine = models::host_machine();
  cfg.timed_refinement = true;
  cfg.refine_top_k = 2;
  cfg.refine_steps = 1;
  const auto result = tune::autotune(cfg);
  EXPECT_GT(result.best_candidate.measured_mlups, 0.0);
  EXPECT_EQ(result.best.threads(), 2);
}

}  // namespace
