// Two-stage sharded autotuner: the exchange-interval axis, per-shard plans
// tuned against real (uneven) sub-grids, timed refinement on the actual
// ShardedEngine, plan serialization — and the safety properties every plan
// the tuner can emit must satisfy: partition feasibility (overlap depth
// never exceeds a shard's owned z-extent) and bit-exact equivalence with
// the undecomposed reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "dist/halo.hpp"
#include "dist/partition.hpp"
#include "em/coefficients.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "grid/fieldset.hpp"
#include "kernels/reference.hpp"
#include "models/machine.hpp"
#include "tune/autotuner.hpp"
#include "tune/space.hpp"

namespace {

using namespace emwd;
using grid::Extents;
using grid::FieldSet;
using grid::Layout;
using tune::ShardedTuneConfig;
using tune::ShardedTuneResult;
using tune::SpaceLimits;

/// The engine a plan runs as: its spec, built through the registry for the
/// tuned grid — what stage 2 and every --engine replay construct.
std::unique_ptr<exec::Engine> build_plan(const tune::ShardPlan& plan,
                                         const ShardedTuneConfig& cfg) {
  exec::BuildContext ctx;
  ctx.grid = cfg.grid;
  ctx.threads = cfg.threads;
  return exec::EngineRegistry::global().build(plan.to_spec(), ctx);
}

// ---------------------------------------------------- exchange-interval axis

TEST(ExchangeIntervals, SingleShardNeedsNoExchange) {
  EXPECT_EQ(tune::enumerate_exchange_intervals(1, {32, 32, 64}), (std::vector<int>{1}));
}

TEST(ShardedTune, StageOneChargesOnlyTheWorstShardsBytes) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {32, 32, 40};
  cfg.machine = models::haswell18();
  const tune::ShardedCandidate c = tune::score_sharded_candidate(4, 2, cfg);
  const dist::Partitioner part(cfg.grid, 4, 2);
  // The post/wait exchange proceeds pairwise, so only the worst single
  // shard's pull is exposed: an interior shard pulls two sides of a 4-way
  // split, a third of the 6 one-sided donations.
  EXPECT_DOUBLE_EQ(c.halo_bytes_per_step,
                   static_cast<double>(dist::HaloExchange::bytes_per_exchange(part)) / 2.0);
  EXPECT_DOUBLE_EQ(
      c.exposed_halo_bytes_per_step,
      static_cast<double>(dist::HaloExchange::max_shard_bytes_per_exchange(part)) / 2.0);
  EXPECT_DOUBLE_EQ(c.exposed_halo_bytes_per_step * 3.0, c.halo_bytes_per_step);
  EXPECT_GT(c.predicted_mlups, 0.0);
  // A single shard exchanges nothing.
  const tune::ShardedCandidate one = tune::score_sharded_candidate(1, 1, cfg);
  EXPECT_EQ(one.halo_bytes_per_step, 0.0);
  EXPECT_EQ(one.exposed_halo_bytes_per_step, 0.0);
}

TEST(ExchangeIntervals, CappedByLimitThenByOwnedPlanes) {
  SpaceLimits limits;
  limits.max_exchange_interval = 4;
  // Plenty of planes: the limit caps the axis.
  EXPECT_EQ(tune::enumerate_exchange_intervals(4, {32, 32, 64}, limits),
            (std::vector<int>{1, 2, 3, 4}));
  // 8 planes over 4 shards own 2 each: feasibility caps at 2.
  EXPECT_EQ(tune::enumerate_exchange_intervals(4, {32, 32, 8}, limits),
            (std::vector<int>{1, 2}));
  // Degenerate: more shards than planes still yields a non-empty axis.
  EXPECT_EQ(tune::enumerate_exchange_intervals(9, {32, 32, 8}, limits),
            (std::vector<int>{1}));
}

// ---------------------------------------------------------- transport axis

TEST(TransportAxis, CostFactorOrdersTransportsByDistanceFromTheCore) {
  // local (in-process memcpy) < shm (one pack/unpack through a mapped
  // ring) < unknown/network-class (mpi).  The tuner multiplies predicted
  // halo seconds by this factor, so the ordering is what steers plan
  // ranking.
  EXPECT_DOUBLE_EQ(tune::transport_cost_factor("local"), 1.0);
  EXPECT_LT(tune::transport_cost_factor("local"), tune::transport_cost_factor("shm"));
  EXPECT_LT(tune::transport_cost_factor("shm"), tune::transport_cost_factor("mpi"));
}

TEST(TransportAxis, PlanCarriesTransportThroughSpecAndParams) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {16, 16, 64};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  cfg.transport = "shm";
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_FALSE(r.ranked.empty());
  bool saw_multi = false;
  for (const tune::ShardedCandidate& c : r.ranked) {
    if (c.plan.num_shards <= 1) continue;
    saw_multi = true;
    EXPECT_EQ(c.plan.transport, "shm");
    EXPECT_NE(c.plan.describe().find("transport=shm"), std::string::npos);
    EXPECT_EQ(c.plan.to_spec().scalar("transport").value_or(""), "shm");
    EXPECT_NE(build_plan(c.plan, cfg)->name().find("transport=shm"), std::string::npos);
  }
  EXPECT_TRUE(saw_multi);
}

TEST(TransportAxis, DefaultPlansStayLocalAndEmitNoTransportKey) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {16, 16, 64};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_FALSE(r.ranked.empty());
  for (const tune::ShardedCandidate& c : r.ranked) {
    EXPECT_EQ(c.plan.transport, "local");
    EXPECT_FALSE(c.plan.to_spec().scalar("transport").has_value());
    EXPECT_EQ(c.plan.describe().find("transport="), std::string::npos);
  }
}

// --------------------------------------------------------- stage-1 scoring

TEST(ShardedScore, BuildsOnePlanEntryPerShard) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {32, 32, 40};
  cfg.machine = models::haswell18();
  const tune::ShardedCandidate c = tune::score_sharded_candidate(2, 2, cfg);
  ASSERT_EQ(c.plan.num_shards, 2);
  ASSERT_EQ(c.plan.exchange_interval, 2);
  ASSERT_EQ(c.plan.per_shard.size(), 2u);
  ASSERT_EQ(c.per_shard.size(), 2u);
  for (const exec::MwdParams& p : c.plan.per_shard) {
    EXPECT_EQ(p.threads(), 2);  // per-shard thread budget
  }
  // Each shard carries 2 ghost planes (one-sided cuts): 44 extended planes
  // over 40 useful ones.
  EXPECT_DOUBLE_EQ(c.redundant_lup_fraction, 4.0 / 40.0);
  EXPECT_GT(c.halo_bytes_per_step, 0.0);
  EXPECT_GT(c.predicted_mlups, 0.0);
}

TEST(ShardedScore, UnevenShardsGetTheirOwnTiling) {
  // 19 planes over 2 shards: shard 0 extends to 10 + 1 ghost, shard 1 to
  // 9 + 1 ghost — different sub-grids, so the plan must carry per-shard
  // entries tuned for each height (they may coincide in parameters, but
  // must be present per shard).
  ShardedTuneConfig cfg;
  cfg.threads = 2;
  cfg.grid = {32, 32, 19};
  cfg.machine = models::haswell18();
  cfg.limits.min_shard_planes = 4;
  const tune::ShardedCandidate c = tune::score_sharded_candidate(2, 1, cfg);
  ASSERT_EQ(c.plan.per_shard.size(), 2u);
  const dist::Partitioner part(cfg.grid, 2, 1);
  EXPECT_NE(part.shard(0).ext_nz(), part.shard(1).ext_nz());
}

TEST(ShardedTune, ModelStageRanksByPredictedScore) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {32, 32, 64};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_GT(r.ranked.size(), 1u);
  for (std::size_t i = 1; i < r.ranked.size(); ++i) {
    EXPECT_GE(r.ranked[i - 1].predicted_mlups, r.ranked[i].predicted_mlups);
  }
  EXPECT_EQ(r.best.plan.describe(), r.ranked.front().plan.describe());
  EXPECT_EQ(r.best.measured_mlups, 0.0);  // stage 2 skipped
}

TEST(ShardedTune, FixedAxesPinTheSearch) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {16, 16, 40};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  cfg.fixed_shards = 2;
  cfg.fixed_interval = 3;
  // Pinned decomposition: exactly the one pinned (K, T) point remains.
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_EQ(r.ranked.size(), 1u);
  EXPECT_EQ(r.best.plan.num_shards, 2);
  EXPECT_EQ(r.best.plan.exchange_interval, 3);
  // There is one exchange protocol, so plans carry no overlap argument.
  EXPECT_FALSE(r.best.plan.to_spec().has("overlap"));
  EXPECT_EQ(r.best.plan.describe().find("overlap"), std::string::npos);

  // A pinned interval deeper than the smallest owned block is clamped, not
  // rejected: 40 planes over 4 shards own 10 each.
  cfg.fixed_shards = 4;
  cfg.fixed_interval = 64;
  const ShardedTuneResult clamped = tune::autotune_sharded(cfg);
  EXPECT_EQ(clamped.best.plan.num_shards, 4);
  EXPECT_EQ(clamped.best.plan.exchange_interval, 10);

  // A pinned shard count past the thread budget must not oversubscribe:
  // a shard needs a thread, so K caps at `threads`.
  cfg.threads = 2;
  cfg.fixed_shards = 32;
  cfg.fixed_interval = 0;
  const ShardedTuneResult capped = tune::autotune_sharded(cfg);
  EXPECT_EQ(capped.best.plan.num_shards, 2);
  EXPECT_LE(build_plan(capped.best.plan, cfg)->threads(), 2);
}

// --------------------------------------------------------- stage-2 (timed)

TEST(ShardedTune, TimedRefinementMeasuresTopPlansOnRealEngine) {
  ShardedTuneConfig cfg;
  cfg.threads = 2;
  cfg.grid = {12, 12, 16};
  cfg.machine = models::host_machine();
  cfg.limits.min_shard_planes = 4;
  cfg.timed_refinement = true;
  cfg.refine_top_k = 2;
  cfg.refine_steps = 2;
  cfg.warmup_steps = 1;
  cfg.repeats = 2;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  EXPECT_GT(r.best.measured_mlups, 0.0);
  EXPECT_GT(r.best.measured_seconds, 0.0);
  int timed = 0;
  for (const tune::ShardedCandidate& c : r.ranked) {
    if (c.measured_mlups > 0.0) ++timed;
  }
  EXPECT_EQ(timed, 2);
  // The winner is the best MEASURED candidate among the timed ones.
  for (const tune::ShardedCandidate& c : r.ranked) {
    EXPECT_GE(r.best.measured_mlups, c.measured_mlups);
  }
}

// ------------------------------------------------- emitted-plan properties

TEST(ShardedTune, EveryEmittablePlanIsBitExactVsUndecomposedRun) {
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {8, 9, 16};
  cfg.machine = models::haswell18();
  cfg.limits.min_shard_planes = 8;
  cfg.timed_refinement = false;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_FALSE(r.ranked.empty());

  const Layout layout(cfg.grid);
  for (const tune::ShardedCandidate& c : r.ranked) {
    FieldSet reference(layout);
    em::build_random_stable(reference, /*seed=*/91);
    FieldSet fs(layout);
    em::build_random_stable(fs, /*seed=*/91);

    const int steps = 5;  // exercises a partial final round for T in {2,3,4}
    kernels::reference_step(reference, steps);
    auto engine = build_plan(c.plan, cfg);
    engine->run(fs, steps);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << c.plan.describe();
    EXPECT_EQ(engine->stats().shards, c.plan.num_shards) << c.plan.describe();
  }
}

TEST(ShardedTune, ChooseShardCountNeverExceedsAnyShardZExtent) {
  // Property test over degenerate thin-domain grids: the chosen overlap
  // depth (== exchange interval) must be coverable by EVERY shard's owned
  // z-block, or the partition could not be built at all.  Aggressive limits
  // push the tuner toward the infeasible corner on purpose.
  ShardedTuneConfig cfg;
  cfg.machine = models::haswell18();
  cfg.limits.max_shards = 8;
  cfg.limits.min_shard_planes = 1;
  cfg.limits.max_exchange_interval = 6;
  cfg.timed_refinement = false;
  for (int nz : {1, 2, 3, 4, 5, 6, 7, 9, 12, 17}) {
    for (int threads : {1, 2, 4, 8}) {
      cfg.threads = threads;
      cfg.grid = {16, 16, nz};
      const tune::ShardPlan plan = tune::autotune_sharded(cfg).best.plan;
      ASSERT_GE(plan.num_shards, 1);
      ASSERT_GE(plan.exchange_interval, 1);
      const int overlap = plan.num_shards > 1 ? plan.exchange_interval : 1;
      dist::Partitioner part(cfg.grid, plan.num_shards, overlap);
      for (const dist::ShardExtent& e : part.shards()) {
        EXPECT_GE(e.owned(), overlap)
            << "nz=" << nz << " threads=" << threads << " K=" << plan.num_shards
            << " T=" << plan.exchange_interval;
      }
    }
  }
}

// ------------------------------------------------------------ serialization

TEST(ShardedTune, CsvSerializesOneRowPerCandidate) {
  ShardedTuneConfig cfg;
  cfg.threads = 2;
  cfg.grid = {16, 16, 32};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  const std::string csv = r.to_csv();
  EXPECT_EQ(csv.rfind("shards,interval,redundant_frac,halo_MB_per_step,", 0), 0u)
      << csv.substr(0, 80);
  std::size_t lines = 0;
  for (char ch : csv) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, r.ranked.size() + 1);  // header + one row per candidate
  // Plans serialize as engine-spec strings, not ad-hoc describe() text.
  EXPECT_NE(csv.find("sharded(shards="), std::string::npos);
}

TEST(ShardedTune, PlanSpecsRoundTripThroughParserAndRegistry) {
  // Every emittable plan's to_spec() must survive the string round trip, so
  // a CSV row pasted into --engine builds (through the registry, like every
  // plan in EveryEmittablePlanIsBitExactVsUndecomposedRun) the same plan.
  ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {6, 9, 16};
  cfg.machine = models::haswell18();
  cfg.limits.min_shard_planes = 8;
  cfg.timed_refinement = false;
  const ShardedTuneResult r = tune::autotune_sharded(cfg);
  ASSERT_FALSE(r.ranked.empty());

  for (const tune::ShardedCandidate& c : r.ranked) {
    const exec::EngineSpec spec = c.plan.to_spec();
    const std::string text = exec::to_string(spec);
    EXPECT_EQ(exec::parse_engine_spec(text), spec) << text;
  }
}

}  // namespace
