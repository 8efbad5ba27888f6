// Unit tests for thread teams, thread-group slots and tile traversal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "em/coefficients.hpp"
#include "exec/engine.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "exec/thread_pool.hpp"
#include "exec/traversal.hpp"
#include "kernels/reference.hpp"
#include "kernels/update.hpp"
#include "tiling/diamond.hpp"
#include "tiling/wavefront.hpp"
#include "util/json.hpp"

namespace {

using namespace emwd;
using exec::Chunk;
using exec::split_range;
using exec::TgShape;
using exec::TgSlot;

TEST(SplitRange, CoversWithoutOverlapAndBalances) {
  for (int n : {0, 1, 7, 64, 100}) {
    for (int parts : {1, 2, 3, 7, 16}) {
      std::vector<int> hits(static_cast<std::size_t>(n), 0);
      int max_len = 0, min_len = 1 << 30;
      for (int r = 0; r < parts; ++r) {
        const Chunk c = split_range(n, parts, r);
        max_len = std::max(max_len, c.end - c.begin);
        min_len = std::min(min_len, c.end - c.begin);
        for (int i = c.begin; i < c.end; ++i) hits[static_cast<std::size_t>(i)]++;
      }
      for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);
      EXPECT_LE(max_len - min_len, 1) << "unbalanced split n=" << n;
    }
  }
}

TEST(ThreadTeam, RunsEveryTid) {
  for (int n : {1, 2, 5}) {
    std::vector<std::atomic<int>> seen(static_cast<std::size_t>(n));
    for (auto& s : seen) s.store(0);
    exec::ThreadTeam::run(n, [&](int tid) { seen[static_cast<std::size_t>(tid)]++; });
    for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  }
}

TEST(ThreadTeam, PropagatesExceptions) {
  EXPECT_THROW(
      exec::ThreadTeam::run(3,
                            [&](int tid) {
                              if (tid == 2) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  EXPECT_THROW(exec::ThreadTeam::run(0, [](int) {}), std::invalid_argument);
}

TEST(TgSlot, FromRankIsABijection) {
  const TgShape shape{2, 3, 2};
  std::set<std::tuple<int, int, int>> seen;
  for (int r = 0; r < shape.size(); ++r) {
    const TgSlot s = TgSlot::from_rank(r, shape);
    EXPECT_GE(s.rx, 0);
    EXPECT_LT(s.rx, shape.tx);
    EXPECT_GE(s.rz, 0);
    EXPECT_LT(s.rz, shape.tz);
    EXPECT_GE(s.rc, 0);
    EXPECT_LT(s.rc, shape.tc);
    seen.insert({s.rx, s.rz, s.rc});
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(shape.size()));
}

TEST(Traversal, CoversEveryRowOfTheTileExactlyOnce) {
  // Union over all slots of one TG must hit every (comp, s, y, z) of the
  // tile exactly once, for several shapes.
  tiling::DiamondTiling dt(3, 12, 4);
  const int nz = 9;
  // Pick a tile with multiple slices.
  tiling::TileCoord tile = dt.tiles()[dt.tiles().size() / 2];
  const auto slices = dt.slices(tile);
  ASSERT_FALSE(slices.empty());

  std::int64_t expected_rows = 0;
  for (const auto& sl : slices) expected_rows += static_cast<std::int64_t>(sl.width()) * nz * 6;

  for (const TgShape shape : {TgShape{1, 1, 1}, TgShape{1, 2, 1}, TgShape{1, 1, 3},
                              TgShape{1, 2, 2}, TgShape{1, 3, 6}}) {
    std::map<std::tuple<int, int, int, int>, int> cover;  // comp, s, y, z
    std::vector<std::int64_t> barriers(static_cast<std::size_t>(shape.size()), 0);
    for (int rank = 0; rank < shape.size(); ++rank) {
      const TgSlot slot = TgSlot::from_rank(rank, shape);
      exec::traverse_tile(
          dt, tile, /*bz=*/2, nz, shape, slot,
          [&](kernels::Comp comp, int s, int y, int z) {
            cover[{kernels::idx(comp), s, y, z}]++;
          },
          [&] { barriers[static_cast<std::size_t>(rank)]++; });
    }
    std::int64_t total = 0;
    for (const auto& [key, count] : cover) {
      EXPECT_EQ(count, 1) << "row visited twice";
      total += count;
    }
    EXPECT_EQ(total, expected_rows) << "shape " << shape.tx << "x" << shape.tz << "x"
                                    << shape.tc;
    // Barrier counts must be identical across slots (lock-step execution).
    for (std::size_t r = 1; r < barriers.size(); ++r) EXPECT_EQ(barriers[r], barriers[0]);
    EXPECT_GT(barriers[0], 0);
  }
}

TEST(Traversal, SweepVisitsEveryRowOnceAndByAtLeastNyIsTheReferenceOrder) {
  // A z sub-range, as one thread of the untiled engine walks it.
  const int ny = 7, z0 = 2, z1 = 6;
  using Row = std::tuple<int, int, int>;  // comp, y, z
  for (bool h_phase : {true, false}) {
    // kernels::reference_half_step's order: the phase's components in
    // update order, each swept plane by plane (reference_component_sweep).
    std::vector<Row> reference;
    for (kernels::Comp c : h_phase ? kernels::kHComps : kernels::kEComps) {
      for (int z = z0; z < z1; ++z) {
        for (int y = 0; y < ny; ++y) reference.emplace_back(kernels::idx(c), y, z);
      }
    }
    std::vector<Row> reference_sorted = reference;
    std::sort(reference_sorted.begin(), reference_sorted.end());

    for (int by : {1, 3, ny, ny + 5}) {
      std::vector<Row> order;
      exec::traverse_sweep(h_phase, ny, z0, z1, by, [&](kernels::Comp c, int y, int z) {
        order.emplace_back(kernels::idx(c), y, z);
      });
      std::vector<Row> sorted = order;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, reference_sorted) << "by=" << by << ": not every row exactly once";
      if (by >= ny) {
        EXPECT_EQ(order, reference) << "by=" << by;
        continue;
      }
      for (std::size_t i = 0; i < order.size(); ++i) {
        // Components still run one after another in update order ...
        EXPECT_EQ(std::get<0>(order[i]), std::get<0>(reference[i])) << "by=" << by;
        if (i == 0 || std::get<0>(order[i - 1]) != std::get<0>(order[i])) continue;
        const auto& [comp, y, z] = order[i];
        const int prev_y = std::get<1>(order[i - 1]), prev_z = std::get<2>(order[i - 1]);
        if (kernels::kComps[static_cast<std::size_t>(comp)].axis == kernels::Axis::Z) {
          // ... a z-shift component walks y-blocks of `by` rows outermost ...
          EXPECT_GE(y / by, prev_y / by) << "by=" << by;
        } else {
          // ... and every other component plane by plane.
          EXPECT_GE(z, prev_z) << "by=" << by;
        }
      }
    }
  }
}

TEST(Traversal, HalfStepsAscendWithinAFront) {
  // Each barrier closes one traverse_slice quantum: every row between two
  // barriers belongs to one half-step, and the quanta run front by front,
  // half-steps ascending within a front, skipping empty windows.
  tiling::DiamondTiling dt(3, 12, 4);
  const tiling::TileCoord tile = *std::max_element(
      dt.tiles().begin(), dt.tiles().end(), [&](const auto& a, const auto& b) {
        return dt.slices(a).size() < dt.slices(b).size();
      });
  const int bz = 2, nz = 8;
  std::vector<std::vector<int>> quanta(1);  // the s of every row, per quantum
  exec::traverse_tile(
      dt, tile, bz, nz, TgShape{}, TgSlot{},
      [&](kernels::Comp, int s, int, int) { quanta.back().push_back(s); },
      [&] { quanta.emplace_back(); });
  ASSERT_TRUE(quanta.back().empty()) << "rows after the last barrier";
  quanta.pop_back();

  const auto slices = dt.slices(tile);
  ASSERT_GT(slices.size(), 1u);
  ASSERT_TRUE(std::is_sorted(slices.begin(), slices.end(),
                             [](const auto& a, const auto& b) { return a.s < b.s; }));
  const int s_base = slices.front().s;
  std::vector<int> expected;
  for (int f = 0; f < tiling::num_fronts(nz, bz, s_base, slices.back().s); ++f) {
    for (const auto& sl : slices) {
      if (!tiling::z_window(f * bz, bz, sl.s, s_base, nz).empty()) expected.push_back(sl.s);
    }
  }
  ASSERT_EQ(quanta.size(), expected.size());
  for (std::size_t q = 0; q < quanta.size(); ++q) {
    EXPECT_FALSE(quanta[q].empty()) << "quantum " << q;
    for (int s : quanta[q]) EXPECT_EQ(s, expected[q]) << "quantum " << q;
  }
}

TEST(MwdParams, DescribeAndThreads) {
  exec::MwdParams p;
  p.dw = 8;
  p.bz = 2;
  p.tx = 2;
  p.tz = 1;
  p.tc = 3;
  p.num_tgs = 2;
  EXPECT_EQ(p.tg_size(), 6);
  EXPECT_EQ(p.threads(), 12);
  EXPECT_NE(p.describe().find("dw=8"), std::string::npos);
}

TEST(MwdEngine, RejectsBadParams) {
  exec::MwdParams p;
  p.dw = 0;
  EXPECT_THROW(exec::make_mwd_engine(p), std::invalid_argument);
  p = exec::MwdParams{};
  p.tc = 7;
  EXPECT_THROW(exec::make_mwd_engine(p), std::invalid_argument);
  p = exec::MwdParams{};
  p.bz = 0;
  EXPECT_THROW(exec::make_mwd_engine(p), std::invalid_argument);
  p = exec::MwdParams{};
  p.num_tgs = 0;
  EXPECT_THROW(exec::make_mwd_engine(p), std::invalid_argument);
}

TEST(Engines, ReportStats) {
  grid::Layout L({8, 8, 8});
  grid::FieldSet fs(L);
  for (const auto& c : kernels::kComps) fs.set_coeffs(c.self, 0, 0, {0.5, 0.0}, {0.1, 0.0});
  auto naive = exec::make_naive_engine(2);
  naive->run(fs, 2);
  EXPECT_EQ(naive->stats().steps, 2);
  EXPECT_EQ(naive->stats().lups, 2 * 8 * 8 * 8);
  EXPECT_GT(naive->stats().mlups, 0.0);

  exec::MwdParams p;
  p.dw = 2;
  p.bz = 2;
  p.num_tgs = 2;
  auto mwd = exec::make_mwd_engine(p);
  mwd->run(fs, 2);
  EXPECT_EQ(mwd->stats().lups, 2 * 8 * 8 * 8);
  // Every tile of the tiling must have been executed.
  tiling::DiamondTiling dt(2, 8, 2);
  EXPECT_EQ(mwd->stats().tiles_executed,
            static_cast<std::int64_t>(dt.tiles().size()));
  EXPECT_GT(mwd->stats().barrier_episodes, 0);
  // Wait-time instrumentation: non-negative and bounded by wall time x threads.
  EXPECT_GE(mwd->stats().queue_wait_seconds, 0.0);
  EXPECT_LE(mwd->stats().queue_wait_seconds,
            mwd->stats().seconds * mwd->threads() + 1.0);
  // One-thread groups count their barrier episodes but never wait in them,
  // so no barrier wait is timed.
  EXPECT_EQ(mwd->stats().barrier_wait_seconds, 0.0);

  // A two-thread group times its barrier waits.
  p.num_tgs = 1;
  p.tc = 2;
  auto split = exec::make_mwd_engine(p);
  split->run(fs, 2);
  EXPECT_GT(split->stats().barrier_wait_seconds, 0.0);
  EXPECT_LE(split->stats().barrier_wait_seconds, split->stats().seconds * split->threads());
}

exec::EngineStats sample_stats(double seconds, double mlups) {
  exec::EngineStats s;
  s.seconds = seconds;
  s.steps = 4;
  s.lups = 1000;
  s.mlups = mlups;
  s.tiles_executed = 7;
  s.barrier_episodes = 3;
  s.queue_wait_seconds = 0.25;
  s.barrier_wait_seconds = 0.5;
  s.shards = 2;
  s.halo_exchange_seconds = 0.125;
  s.halo_bytes_moved = 4096;
  s.halo_wait_seconds = 0.0625;
  s.halo_hidden_seconds = 0.03125;
  s.halo_staged_bytes = 2048;
  s.halo_unstaged_bytes = 2048;
  s.halo_stage_seconds = 0.015625;
  s.halo_unstage_seconds = 0.0078125;
  s.halo_transport = "shm";
  s.kernel_isa = "avx2";
  return s;
}

TEST(EngineStatsMerge, DefaultIsLeftAndRightIdentity) {
  const exec::EngineStats x = sample_stats(2.0, 10.0);

  // x.merge(zero) == x.
  exec::EngineStats a = x;
  a.merge(exec::EngineStats{});
  EXPECT_EQ(a.seconds, x.seconds);
  EXPECT_EQ(a.steps, x.steps);
  EXPECT_EQ(a.lups, x.lups);
  EXPECT_EQ(a.mlups, x.mlups);
  EXPECT_EQ(a.tiles_executed, x.tiles_executed);
  EXPECT_EQ(a.barrier_episodes, x.barrier_episodes);
  EXPECT_EQ(a.queue_wait_seconds, x.queue_wait_seconds);
  EXPECT_EQ(a.barrier_wait_seconds, x.barrier_wait_seconds);
  EXPECT_EQ(a.shards, x.shards);
  EXPECT_EQ(a.halo_exchange_seconds, x.halo_exchange_seconds);
  EXPECT_EQ(a.halo_bytes_moved, x.halo_bytes_moved);
  EXPECT_EQ(a.halo_wait_seconds, x.halo_wait_seconds);
  EXPECT_EQ(a.halo_hidden_seconds, x.halo_hidden_seconds);
  EXPECT_EQ(a.halo_staged_bytes, x.halo_staged_bytes);
  EXPECT_EQ(a.halo_unstaged_bytes, x.halo_unstaged_bytes);
  EXPECT_EQ(a.halo_stage_seconds, x.halo_stage_seconds);
  EXPECT_EQ(a.halo_unstage_seconds, x.halo_unstage_seconds);
  EXPECT_EQ(a.halo_transport, x.halo_transport);
  EXPECT_STREQ(a.kernel_isa, x.kernel_isa);

  // zero.merge(x) == x (mlups of a zero-seconds accumulator takes x's).
  exec::EngineStats b;
  b.merge(x);
  EXPECT_EQ(b.seconds, x.seconds);
  EXPECT_EQ(b.steps, x.steps);
  EXPECT_EQ(b.lups, x.lups);
  EXPECT_EQ(b.mlups, x.mlups);
  EXPECT_EQ(b.shards, x.shards);
  EXPECT_EQ(b.halo_bytes_moved, x.halo_bytes_moved);
  EXPECT_EQ(b.halo_staged_bytes, x.halo_staged_bytes);
  EXPECT_EQ(b.halo_transport, x.halo_transport);
  EXPECT_STREQ(b.kernel_isa, x.kernel_isa);
}

TEST(EngineStatsMerge, SumsTimesAndCountersMaxesPeaks) {
  exec::EngineStats a = sample_stats(1.0, 30.0);
  a.shards = 4;
  a.kernel_isa = "scalar";
  a.halo_transport.clear();  // resting default, must promote from b
  const exec::EngineStats b = sample_stats(3.0, 10.0);

  a.merge(b);
  EXPECT_EQ(a.seconds, 4.0);
  EXPECT_EQ(a.steps, 8);
  EXPECT_EQ(a.lups, 2000);
  EXPECT_EQ(a.tiles_executed, 14);
  EXPECT_EQ(a.barrier_episodes, 6);
  EXPECT_EQ(a.queue_wait_seconds, 0.5);
  EXPECT_EQ(a.barrier_wait_seconds, 1.0);
  EXPECT_EQ(a.halo_exchange_seconds, 0.25);
  EXPECT_EQ(a.halo_bytes_moved, 8192);
  EXPECT_EQ(a.halo_wait_seconds, 0.125);
  EXPECT_EQ(a.halo_hidden_seconds, 0.0625);
  EXPECT_EQ(a.halo_staged_bytes, 4096);
  EXPECT_EQ(a.halo_unstaged_bytes, 4096);
  EXPECT_EQ(a.halo_stage_seconds, 0.03125);
  EXPECT_EQ(a.halo_unstage_seconds, 0.015625);
  // Peaks: shard max, ISA promotion away from "scalar" and transport
  // promotion away from empty (consistent with accumulate_work).
  EXPECT_EQ(a.shards, 4);
  EXPECT_STREQ(a.kernel_isa, "avx2");
  EXPECT_EQ(a.halo_transport, "shm");
  // Wall-time-weighted mean throughput: (30*1 + 10*3) / 4.
  EXPECT_EQ(a.mlups, 15.0);
}

TEST(EngineStatsJson, RoundTripsEveryField) {
  const exec::EngineStats x = sample_stats(2.0, 10.0);
  const exec::EngineStats y =
      exec::EngineStats::from_json(util::JsonValue::parse(x.to_json()));
  EXPECT_EQ(y.seconds, x.seconds);
  EXPECT_EQ(y.steps, x.steps);
  EXPECT_EQ(y.lups, x.lups);
  EXPECT_EQ(y.mlups, x.mlups);
  EXPECT_EQ(y.tiles_executed, x.tiles_executed);
  EXPECT_EQ(y.barrier_episodes, x.barrier_episodes);
  EXPECT_EQ(y.queue_wait_seconds, x.queue_wait_seconds);
  EXPECT_EQ(y.barrier_wait_seconds, x.barrier_wait_seconds);
  EXPECT_EQ(y.shards, x.shards);
  EXPECT_EQ(y.halo_exchange_seconds, x.halo_exchange_seconds);
  EXPECT_EQ(y.halo_bytes_moved, x.halo_bytes_moved);
  EXPECT_EQ(y.halo_wait_seconds, x.halo_wait_seconds);
  EXPECT_EQ(y.halo_hidden_seconds, x.halo_hidden_seconds);
  EXPECT_EQ(y.halo_staged_bytes, x.halo_staged_bytes);
  EXPECT_EQ(y.halo_unstaged_bytes, x.halo_unstaged_bytes);
  EXPECT_EQ(y.halo_stage_seconds, x.halo_stage_seconds);
  EXPECT_EQ(y.halo_unstage_seconds, x.halo_unstage_seconds);
  EXPECT_EQ(y.halo_transport, x.halo_transport);
  // kernel_isa is interned to the dispatch-table strings on read.
  EXPECT_STREQ(y.kernel_isa, x.kernel_isa);
  // The serialized form also carries the derived exposure (for consumers
  // that read the JSON without this struct); it must match the recompute.
  EXPECT_EQ(y.halo_exposed_seconds(), x.halo_exposed_seconds());
  // Canonical form: serializing the round-tripped stats is a fixed point.
  EXPECT_EQ(y.to_json(), x.to_json());
}

TEST(EngineStatsJson, RoundTripsEveryKernelIsa) {
  // Every body name the row kernel can report survives a JobResult or
  // daemon round trip; an unknown name degrades to "scalar".
  for (const char* isa : {"scalar", "avx2", "avx512", kernels::row_isa()}) {
    exec::EngineStats x = sample_stats(2.0, 10.0);
    x.kernel_isa = isa;
    const exec::EngineStats y =
        exec::EngineStats::from_json(util::JsonValue::parse(x.to_json()));
    EXPECT_STREQ(y.kernel_isa, isa);
    EXPECT_EQ(y.to_json(), x.to_json());
  }
  const exec::EngineStats unknown =
      exec::EngineStats::from_json(util::JsonValue::parse("{\"kernel_isa\":\"neon\"}"));
  EXPECT_STREQ(unknown.kernel_isa, "scalar");
}

TEST(EngineStatsJson, AbsentFieldsKeepDefaultsUnknownIgnored) {
  const exec::EngineStats s = exec::EngineStats::from_json(
      util::JsonValue::parse("{\"steps\":3,\"not_a_field\":1}"));
  EXPECT_EQ(s.steps, 3);
  EXPECT_EQ(s.seconds, 0.0);
  EXPECT_EQ(s.shards, 1);
  EXPECT_STREQ(s.kernel_isa, "scalar");
}

TEST(EngineStatsMerge, ZeroSecondsPairTakesMaxMlups) {
  exec::EngineStats a;
  a.mlups = 5.0;
  exec::EngineStats b;
  b.mlups = 9.0;
  a.merge(b);
  EXPECT_EQ(a.mlups, 9.0);
  EXPECT_EQ(a.seconds, 0.0);
}

TEST(Engines, StatsRecordTheResolvedKernelIsa) {
  // Every stock engine runs its rows through kernels::update_row and
  // reports the body that dispatch picked on this CPU.
  grid::Layout L({8, 8, 8});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 59);
  auto naive = exec::make_naive_engine(1);
  naive->run(fs, 1);
  EXPECT_STREQ(naive->stats().kernel_isa, kernels::row_isa());
  auto spatial = exec::make_spatial_engine(1);
  spatial->run(fs, 1);
  EXPECT_STREQ(spatial->stats().kernel_isa, kernels::row_isa());
  exec::MwdParams p;
  p.dw = 2;
  auto mwd = exec::make_mwd_engine(p);
  mwd->run(fs, 1);
  EXPECT_STREQ(mwd->stats().kernel_isa, kernels::row_isa());
}

TEST(Engines, KernelIsaNeverEmptyEvenForWrapperEngines) {
  // Default-constructed stats — what a wrapper or test engine that never
  // touches dispatch reports — must still carry "scalar", so bench CSV
  // columns are never empty.  Aggregation keeps "scalar" unless a
  // contributor actually dispatched to a different ISA.
  exec::EngineStats fresh;
  EXPECT_STREQ(fresh.kernel_isa, "scalar");

  exec::EngineStats aggregate, scalar_work, simd_work;
  simd_work.kernel_isa = "avx2";
  exec::accumulate_work(aggregate, scalar_work);
  EXPECT_STREQ(aggregate.kernel_isa, "scalar");
  exec::accumulate_work(aggregate, simd_work);
  EXPECT_STREQ(aggregate.kernel_isa, "avx2");
  exec::accumulate_work(aggregate, scalar_work);  // scalar never demotes
  EXPECT_STREQ(aggregate.kernel_isa, "avx2");
}

// ---------------------------------------------------------- engine registry

TEST(EngineRegistry, GlobalKnowsEveryKindAndRejectsUnknowns) {
  exec::EngineRegistry& reg = exec::EngineRegistry::global();
  for (const char* kind : {"naive", "spatial", "mwd", "wavefront", "sharded", "auto"}) {
    EXPECT_TRUE(reg.has(kind)) << kind;
  }
  exec::BuildContext ctx;
  ctx.grid = {8, 8, 8};
  ctx.threads = 1;
  EXPECT_THROW(reg.build("warp-drive", ctx), std::invalid_argument);
  // Unknown argument keys fail loudly instead of being ignored.
  EXPECT_THROW(reg.build("naive(cores=2)", ctx), std::invalid_argument);
  EXPECT_THROW(reg.build("mwd(dww=4)", ctx), std::invalid_argument);
  EXPECT_THROW(reg.build("sharded(shard=2)", ctx), std::invalid_argument);
  // Semantic nonsense throws too — never traps or escapes as another type:
  // zero thread splits (the groups fallback divides by tg_size) ...
  EXPECT_THROW(reg.build("mwd(tc=0)", ctx), std::invalid_argument);
  EXPECT_THROW(reg.build("sharded(inner=mwd(tx=0))", ctx), std::invalid_argument);
  // ... keys that do not apply to the sharded mode in use ...
  EXPECT_THROW(reg.build("sharded(inner=naive,tune=measured)", ctx),
               std::invalid_argument);
  EXPECT_THROW(reg.build("sharded(inner=auto,tps=2)", ctx), std::invalid_argument);
  // ... per-shard inner indices that are non-contiguous or absurd ...
  EXPECT_THROW(reg.build("sharded(inner1=mwd())", ctx), std::invalid_argument);
  EXPECT_THROW(reg.build("sharded(inner99999999999999999999=mwd())", ctx),
               std::invalid_argument);
  // ... integer values past int range (no silent strtol saturation) ...
  EXPECT_THROW(reg.build("sharded(shards=99999999999999999999,inner=naive)", ctx),
               std::invalid_argument);
  EXPECT_THROW(reg.build("mwd(dw=2147483648)", ctx), std::invalid_argument);
  // ... and counts below 1, which must neither run a default nor reach an
  // engine that divides by them (spatial's cache budget per thread).
  for (const char* spec :
       {"naive(threads=0)", "spatial(threads=0)", "spatial(threads=-1)",
        "mwd(threads=0)", "mwd(dw=2,groups=1,threads=0)", "auto(threads=0)",
        "sharded(threads=0,inner=naive)", "sharded(inner=spatial(threads=0))",
        "sharded(interval=-3,inner=naive)", "sharded(interval=0,inner=naive)",
        "sharded(shards=-2,inner=naive)", "sharded(shards=0,inner=naive)",
        "sharded(tps=-1,inner=naive)", "sharded(tps=0,inner=naive)",
        "sharded(interval=0,inner=auto)", "sharded(shards=-2,inner=auto)"}) {
    EXPECT_THROW(reg.build(spec, ctx), std::invalid_argument) << spec;
  }
  EXPECT_THROW(exec::mwd_params_from_spec(exec::parse_engine_spec("mwd(threads=0)"), 4),
               std::invalid_argument);
}

TEST(EngineRegistry, BuildsStockEnginesWithContextAndSpecThreads) {
  exec::EngineRegistry& reg = exec::EngineRegistry::global();
  exec::BuildContext ctx;
  ctx.grid = {8, 8, 8};
  ctx.threads = 3;
  EXPECT_EQ(reg.build("naive", ctx)->threads(), 3);          // context budget
  EXPECT_EQ(reg.build("naive(threads=2)", ctx)->threads(), 2);  // spec override
  // A bare mwd spends the budget 1WD-style: one group per thread.
  EXPECT_EQ(reg.build("mwd", ctx)->threads(), 3);
  // Explicit groups pin the shape regardless of the budget.
  auto pinned = reg.build("mwd(dw=2,tc=2,groups=1)", ctx);
  EXPECT_EQ(pinned->threads(), 2);
  EXPECT_NE(pinned->name().find("dw=2"), std::string::npos);
  // Registry-built engines run: a quick smoke step.
  grid::Layout L({8, 8, 8});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 61);
  auto wavefront = reg.build("wavefront(bz=2)", ctx);
  wavefront->run(fs, 2);
  EXPECT_EQ(wavefront->stats().steps, 2);
}

TEST(EngineRegistry, RegisteredBuilderWinsAndComposesRecursively) {
  // A locally registered kind becomes buildable immediately — and a
  // composite spec (sharded inner) resolves through the same registry.
  exec::EngineRegistry reg;
  reg.register_builder("wrapped_naive",
                       [](const exec::EngineSpec&, const exec::BuildContext& ctx) {
                         return exec::make_naive_engine(ctx.resolved_threads());
                       });
  EXPECT_TRUE(reg.has("wrapped_naive"));
  EXPECT_FALSE(reg.has("naive"));
  exec::BuildContext ctx;
  ctx.threads = 1;
  EXPECT_EQ(reg.build("wrapped_naive", ctx)->threads(), 1);

  exec::detail::register_extended_builders(reg);
  ctx.grid = {6, 7, 12};
  auto sharded = reg.build("sharded(shards=2,tps=1,inner=wrapped_naive)", ctx);
  grid::Layout L(ctx.grid);
  grid::FieldSet ref(L), fs(L);
  em::build_random_stable(ref, 103);
  em::build_random_stable(fs, 103);
  kernels::reference_step(ref, 4);
  sharded->run(fs, 4);
  EXPECT_EQ(grid::FieldSet::max_field_diff(fs, ref), 0.0);
  EXPECT_EQ(sharded->stats().shards, 2);
}

TEST(MwdEngine, CachedTilingSurvivesRepeatedAndChunkedRuns) {
  // The DiamondTiling/TileDag/TileQueue triple is cached across run()
  // calls; repeated runs (the tuner's stage-2 pattern) and alternating
  // step counts (a sharded round sequence's full + partial chunks) must
  // reuse it and stay bit-exact.
  grid::Layout L({7, 9, 8});
  exec::MwdParams p;
  p.dw = 3;
  p.num_tgs = 2;
  auto eng = exec::make_mwd_engine(p);
  for (int rep = 0; rep < 3; ++rep) {
    for (int steps : {3, 1, 3}) {
      grid::FieldSet ref(L), fs(L);
      em::build_random_stable(ref, 101 + static_cast<unsigned>(rep));
      em::build_random_stable(fs, 101 + static_cast<unsigned>(rep));
      kernels::reference_step(ref, steps);
      eng->run(fs, steps);
      EXPECT_EQ(grid::FieldSet::max_field_diff(fs, ref), 0.0)
          << "rep=" << rep << " steps=" << steps;
      tiling::DiamondTiling dt(3, 9, steps);
      EXPECT_EQ(eng->stats().tiles_executed, static_cast<std::int64_t>(dt.tiles().size()));
    }
  }
}

TEST(Engines, StaticScheduleExecutesAllTilesWithoutQueueWaits) {
  grid::Layout L({8, 10, 8});
  grid::FieldSet fs(L);
  for (const auto& c : kernels::kComps) fs.set_coeffs(c.self, 0, 0, {0.5, 0.0}, {0.1, 0.0});
  exec::MwdParams p;
  p.dw = 2;
  p.bz = 2;
  p.num_tgs = 2;
  p.schedule = exec::TileSchedule::StaticWave;
  auto eng = exec::make_mwd_engine(p);
  eng->run(fs, 3);
  tiling::DiamondTiling dt(2, 10, 3);
  EXPECT_EQ(eng->stats().tiles_executed, static_cast<std::int64_t>(dt.tiles().size()));
  EXPECT_DOUBLE_EQ(eng->stats().queue_wait_seconds, 0.0);  // no queue at all
  EXPECT_NE(eng->name().find("static"), std::string::npos);
}

TEST(WavefrontEngine, MatchesReferenceAndUsesSingleGroup) {
  grid::Layout L({9, 11, 10});
  grid::FieldSet ref(L), fs(L);
  em::build_random_stable(ref, 61);
  em::build_random_stable(fs, 61);
  kernels::reference_step(ref, 5);

  exec::WavefrontParams wp;
  wp.bz = 2;
  wp.tx = 2;
  wp.tc = 3;
  auto eng = exec::make_wavefront_engine(wp, L.interior(), /*max_steps_per_block=*/2);
  eng->run(fs, 5);
  EXPECT_EQ(grid::FieldSet::max_field_diff(fs, ref), 0.0);
  EXPECT_EQ(eng->threads(), 6);
  EXPECT_EQ(eng->stats().steps, 5);
  EXPECT_NE(eng->name().find("wavefront"), std::string::npos);
}

TEST(WavefrontEngine, BlockSizeDoesNotChangeResults) {
  grid::Layout L({8, 9, 8});
  grid::FieldSet a(L), b(L);
  em::build_random_stable(a, 62);
  em::build_random_stable(b, 62);
  exec::WavefrontParams wp;
  wp.bz = 2;
  exec::make_wavefront_engine(wp, L.interior(), 1)->run(a, 6);
  exec::make_wavefront_engine(wp, L.interior(), 4)->run(b, 6);
  EXPECT_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);
}

}  // namespace
