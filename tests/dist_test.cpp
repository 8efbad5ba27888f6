// The sharded domain-decomposition subsystem: partitioner extents, plane
// slicing, halo round-trips, NUMA helpers, and — the property everything
// hangs on — bit-exact equivalence of sharded runs with the undecomposed
// reference, for every inner engine kind and for exchange intervals > 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "dist/halo.hpp"
#include "dist/numa.hpp"
#include "dist/partition.hpp"
#include "dist/sharded_engine.hpp"
#include "dist/shm_transport.hpp"
#include "dist/transport.hpp"
#include "em/coefficients.hpp"
#include "em/material.hpp"
#include "em/pml.hpp"
#include "em/source.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "fault/inject.hpp"
#include "grid/fieldset.hpp"
#include "io/snapshot.hpp"
#include "kernels/reference.hpp"
#include "kernels/update.hpp"
#include "models/machine.hpp"
#include "tune/autotuner.hpp"
#include "util/machine_detect.hpp"

namespace {

using namespace emwd;
using dist::Partitioner;
using dist::ShardExtent;
using grid::Extents;
using grid::FieldSet;
using grid::Layout;

// ---------------------------------------------------------------- partition

TEST(Partitioner, OwnedBlocksTileTheDomainAndBalance) {
  for (int nz : {7, 8, 24, 31}) {
    for (int k = 1; k <= std::min(nz, 5); ++k) {
      Partitioner part({6, 5, nz}, k, 1);
      int sum = 0, min_owned = nz, max_owned = 0;
      int expect_z0 = 0;
      for (const ShardExtent& e : part.shards()) {
        EXPECT_EQ(e.z0, expect_z0);  // contiguous, no gaps
        expect_z0 = e.z1;
        sum += e.owned();
        min_owned = std::min(min_owned, e.owned());
        max_owned = std::max(max_owned, e.owned());
      }
      EXPECT_EQ(sum, nz) << "nz=" << nz << " k=" << k;
      EXPECT_LE(max_owned - min_owned, 1) << "nz=" << nz << " k=" << k;
    }
  }
}

TEST(Partitioner, OverlapClampsAtDomainEdges) {
  Partitioner part({4, 4, 12}, 3, 2);
  EXPECT_EQ(part.shard(0).lo, 0);
  EXPECT_EQ(part.shard(0).hi, 2);
  EXPECT_EQ(part.shard(1).lo, 2);
  EXPECT_EQ(part.shard(1).hi, 2);
  EXPECT_EQ(part.shard(2).lo, 2);
  EXPECT_EQ(part.shard(2).hi, 0);
  EXPECT_EQ(part.shard(1).ext_nz(), 4 + 4);
  EXPECT_EQ(part.shard_layout(1).nz(), 8);
  EXPECT_EQ(part.shard_layout(1).nx(), 4);
}

TEST(Partitioner, RejectsBadArguments) {
  EXPECT_THROW(Partitioner({4, 4, 8}, 0, 1), std::invalid_argument);
  EXPECT_THROW(Partitioner({4, 4, 8}, 9, 1), std::invalid_argument);   // K > nz
  EXPECT_THROW(Partitioner({4, 4, 8}, 2, 0), std::invalid_argument);   // no overlap
  EXPECT_THROW(Partitioner({4, 4, 8}, 2, 5), std::invalid_argument);   // > min owned
  EXPECT_NO_THROW(Partitioner({4, 4, 8}, 2, 4));
  EXPECT_NO_THROW(Partitioner({4, 4, 8}, 1, 0));  // single shard needs no overlap
}

TEST(Partitioner, ClampShards) {
  EXPECT_EQ(Partitioner::clamp_shards(64, 4, 1), 4);
  EXPECT_EQ(Partitioner::clamp_shards(64, 100, 1), 64);
  EXPECT_EQ(Partitioner::clamp_shards(64, 8, 16), 4);  // owned must cover overlap
  EXPECT_EQ(Partitioner::clamp_shards(8, 4, 16), 1);
  EXPECT_EQ(Partitioner::clamp_shards(8, 0, 1), 1);
}

// ------------------------------------------------------------ plane slicing

TEST(PlaneSlicing, ScatterSplitJoinRoundTripsAllArrays) {
  Layout L({5, 6, 13});
  FieldSet global(L);
  em::build_random_stable(global, 3);
  global.set_x_boundary(grid::XBoundary::Periodic);
  const FieldSet original(global);

  Partitioner part(L.interior(), 3, 2);
  auto bundle = std::make_shared<grid::FieldParts>();
  for (int s = 0; s < part.num_shards(); ++s) {
    const ShardExtent& e = part.shard(s);
    auto shard = std::make_unique<FieldSet>(part.shard_layout(s));
    part.scatter(global, *shard, s);
    EXPECT_EQ(shard->x_boundary(), grid::XBoundary::Periodic);
    bundle->parts.push_back({std::move(shard), e.z0, e.z1, e.ext_z0()});
  }
  global.split(bundle);
  EXPECT_EQ(global.parts(), bundle.get());
  EXPECT_EQ(bundle->holders.load(), 1);
  // Rows come from the owning shard, in global z order, with no join.
  for (const auto& ci : kernels::kComps) {
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        ASSERT_EQ(std::memcmp(global.row(ci.self, j, k), original.row(ci.self, j, k),
                              2 * sizeof(double) * static_cast<std::size_t>(L.nx())),
                  0)
            << ci.name << " j=" << j << " k=" << k;
      }
    }
  }
  EXPECT_EQ(FieldSet::max_field_diff(global, original), 0.0);
  EXPECT_EQ(global.parts(), bundle.get());

  // Joining copies whole padded planes back (the periodic x halo included)
  // and lets go of the parts; the z halo planes stay zero.
  global.join();
  EXPECT_EQ(global.parts(), nullptr);
  EXPECT_EQ(bundle->holders.load(), 0);
  for (const auto& ci : kernels::kComps) {
    const grid::Field& got = global.field(ci.self);
    const grid::Field& want = original.field(ci.self);
    for (int k = -1; k <= L.nz(); ++k) {
      for (int j = -1; j <= L.ny(); ++j) {
        for (int i = -1; i <= L.nx(); ++i) {
          ASSERT_EQ(got.at(i, j, k), want.at(i, j, k)) << ci.name << " " << i << "," << j
                                                       << "," << k;
        }
      }
    }
  }
}

TEST(PlaneSlicing, SplitRejectsPartsThatDoNotTileThePlanes) {
  const Layout L({4, 4, 8});
  FieldSet fs(L);
  auto bundle = std::make_shared<grid::FieldParts>();
  bundle->parts.push_back({std::make_unique<FieldSet>(Layout({4, 4, 6})), 0, 5, 0});
  EXPECT_THROW(fs.split(bundle), std::invalid_argument);  // planes 5..7 uncovered
  bundle->parts.push_back({std::make_unique<FieldSet>(Layout({4, 5, 4})), 5, 8, 4});
  EXPECT_THROW(fs.split(bundle), std::invalid_argument);  // wrong y extent
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(bundle->holders.load(), 0);
}

TEST(PlaneSlicing, ShardCellsReadTheirGlobalPlanesCoefficients) {
  // Under z-PML each z-plane reads its own table slice, so a shard must map
  // its local planes, ghost planes included, to the global planes' slices.
  const Layout L({5, 4, 24});
  const em::ThiimParams p = em::make_params(10.0);
  em::PmlSpec spec;
  spec.thickness = 5;  // z only, the paper's setup
  const em::PmlProfiles pml(L, spec, p.h);
  em::MaterialGrid mats(L);
  const auto asi = mats.add(em::amorphous_silicon());
  mats.set(2, 1, 3, asi);
  mats.set(4, 3, 20, asi);
  FieldSet global(L);
  em::build_coefficients(global, mats, pml, p);
  em::add_plane_wave(global, mats, pml, p, em::SourceField::Ex, 19, {1.0, 0.5});
  em::add_point_dipole(global, mats, pml, p, em::SourceField::Hy, 1, 1, 2, {0.0, 1.0});
  ASSERT_EQ(global.num_slices(kernels::Axis::Z), spec.thickness + 1);

  for (const int shards : {2, 3}) {
    Partitioner part(L.interior(), shards, 2);
    for (int s = 0; s < part.num_shards(); ++s) {
      FieldSet shard(part.shard_layout(s));
      part.scatter(global, shard, s);
      const ShardExtent& e = part.shard(s);
      for (int lk = 0; lk < e.ext_nz(); ++lk) {
        const int k = e.ext_z0() + lk;
        for (int j = 0; j < L.ny(); ++j) {
          for (int i = 0; i < L.nx(); ++i) {
            for (const auto& ci : kernels::kComps) {
              ASSERT_EQ(shard.t_at(ci.self, i, j, lk), global.t_at(ci.self, i, j, k))
                  << ci.name << " shard " << s << "/" << shards << " k=" << k;
              ASSERT_EQ(shard.c_at(ci.self, i, j, lk), global.c_at(ci.self, i, j, k));
            }
            for (int src = 0; src < kernels::kNumSources; ++src) {
              ASSERT_EQ(shard.source_at(src, i, j, lk), global.source_at(src, i, j, k))
                  << "source " << src << " shard " << s << "/" << shards << " k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(PlaneSlicing, FieldPlaneCopyValidatesRanges) {
  grid::Field a(Layout({4, 4, 6})), b(Layout({4, 4, 8}));
  EXPECT_NO_THROW(a.copy_z_planes_from(b, 0, 0, 6));
  EXPECT_NO_THROW(a.copy_z_planes_from(b, -1, -1, 8));  // halo planes included
  EXPECT_THROW(a.copy_z_planes_from(b, 0, 0, 8), std::out_of_range);
  EXPECT_THROW(a.copy_z_planes_from(b, 4, 0, 6), std::out_of_range);  // past src top halo
  grid::Field c(Layout({5, 4, 6}));
  EXPECT_THROW(a.copy_z_planes_from(c, 0, 0, 1), std::invalid_argument);
}

// ------------------------------------------------------- split residency

std::unique_ptr<exec::Engine> build_engine(const std::string& spec, const Layout& layout,
                                           int threads = 2) {
  exec::BuildContext ctx;
  ctx.grid = layout.interior();
  ctx.threads = threads;
  return exec::EngineRegistry::global().build(spec, ctx);
}

FieldSet random_set(const Layout& layout, std::uint64_t seed) {
  FieldSet fs(layout);
  em::build_random_stable(fs, seed);
  return fs;
}

constexpr const char* kTwoShards = "sharded(shards=2,interval=2,inner=naive)";

TEST(ShardedResidency, RunLeavesTheSetSplitAndReusesItsShardSets) {
  const Layout L({6, 7, 16});
  FieldSet fs = random_set(L, 103);
  const std::size_t joined_bytes = fs.allocated_bytes();
  const std::size_t array_bytes = kernels::kNumComps * grid::Field(L).size_bytes();
  const auto engine = build_engine(kTwoShards, L);
  engine->run(fs, 3);

  // The set holds none of its 12 arrays; it counts the shard sets instead.
  const grid::FieldParts* parts = fs.parts();
  ASSERT_NE(parts, nullptr);
  ASSERT_EQ(parts->parts.size(), 2u);
  std::size_t part_bytes = 0;
  for (const grid::FieldParts::Part& p : parts->parts) part_bytes += p.set->allocated_bytes();
  EXPECT_EQ(fs.allocated_bytes(), joined_bytes - array_bytes + part_bytes);

  // The next run works on the same shard sets in place.
  const FieldSet* shard0 = parts->parts[0].set.get();
  engine->run(fs, 2);
  ASSERT_EQ(fs.parts(), parts);
  EXPECT_EQ(parts->parts[0].set.get(), shard0);

  FieldSet reference = random_set(L, 103);
  kernels::reference_step(reference, 5);
  EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
  EXPECT_EQ(fs.parts(), parts);  // reading rows never joins
  fs.join();
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(fs.allocated_bytes(), joined_bytes);
  EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
}

TEST(ShardedResidency, SegmentedRunsMatchTheReference) {
  // Runs on a split set start from the ghost planes the previous run left
  // stale, including after a partial final round; each must refresh them
  // before its first compute.
  const Layout L({5, 6, 14});
  for (const char* inner : {"naive", "mwd(dw=4,groups=2)"}) {
    for (int interval : {1, 2, 3}) {
      const std::string spec = "sharded(shards=3,interval=" + std::to_string(interval) +
                               ",inner=" + inner + ")";
      FieldSet fs = random_set(L, 149), reference = random_set(L, 149);
      const auto engine = build_engine(spec, L, 6);
      for (int steps : {1, 3, 2, 0, 5}) engine->run(fs, steps);
      kernels::reference_step(reference, 11);
      EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << spec;
    }
  }
}

TEST(ShardedResidency, WritesBetweenRunsAreHonoured) {
  // run(a), a write through the set, run(b) must match the reference given
  // the same write: every write joins the set, so the next run scatters
  // the written values (and static planes) again.
  const Layout L({5, 6, 13});
  FieldSet other = random_set(L, 107);
  kernels::reference_step(other, 2);
  io::SnapshotInfo info;
  info.extents = L.interior();
  const std::string blob = io::snapshot_to_string(other, info);
  const std::vector<std::pair<std::string, std::function<void(FieldSet&)>>> writes = {
      {"set_source", [](FieldSet& fs) { fs.set_source(0, 2, 3, 6, {0.5, -0.25}); }},
      {"snapshot_from_string", [&blob](FieldSet& fs) { io::snapshot_from_string(blob, fs); }},
      {"clear_fields", [](FieldSet& fs) { fs.clear_fields(); }},
      {"field.set",
       [](FieldSet& fs) { fs.field(kernels::Comp::Hyx).set(1, 2, 7, {3.0, -1.0}); }},
  };
  for (const auto& [name, write] : writes) {
    FieldSet fs = random_set(L, 109);
    FieldSet reference = random_set(L, 109);
    const auto engine = build_engine("sharded(shards=3,interval=2,inner=naive)", L);
    engine->run(fs, 3);
    kernels::reference_step(reference, 3);
    ASSERT_NE(fs.parts(), nullptr) << name;
    write(fs);
    write(reference);
    EXPECT_EQ(fs.parts(), nullptr) << name;
    engine->run(fs, 4);
    kernels::reference_step(reference, 4);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << name;
  }
}

TEST(ShardedResidency, AlternatingSetsAndEnginesStayExact) {
  const Layout L({5, 6, 14});
  {
    // One engine on A, B, A: the second run on A finds its shard sets
    // held by B, so A is joined and scattered into new ones.
    FieldSet a = random_set(L, 113), b = random_set(L, 127);
    FieldSet ra = random_set(L, 113), rb = random_set(L, 127);
    const auto engine = build_engine(kTwoShards, L);
    engine->run(a, 2);
    engine->run(b, 3);
    engine->run(a, 4);
    EXPECT_NE(a.parts(), nullptr);
    EXPECT_NE(a.parts(), b.parts());
    kernels::reference_step(ra, 6);
    kernels::reference_step(rb, 3);
    EXPECT_EQ(FieldSet::max_field_diff(a, ra), 0.0);
    EXPECT_EQ(FieldSet::max_field_diff(b, rb), 0.0);
  }
  {
    // Two engines on one set: each run finds the other engine's parts.
    FieldSet fs = random_set(L, 131), reference = random_set(L, 131);
    const auto e1 = build_engine(kTwoShards, L);
    const auto e2 = build_engine("sharded(shards=3,interval=1,inner=spatial(by=2))", L);
    e1->run(fs, 2);
    e2->run(fs, 3);
    e1->run(fs, 2);
    kernels::reference_step(reference, 7);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
  }
}

TEST(ShardedResidency, SplitSetOutlivesItsEngine) {
  const Layout L({5, 6, 12});
  FieldSet fs = random_set(L, 137), reference = random_set(L, 137);
  build_engine(kTwoShards, L)->run(fs, 4);
  kernels::reference_step(reference, 4);
  ASSERT_NE(fs.parts(), nullptr);
  EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
  fs.join();
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
}

TEST(ShardedResidency, ThreadedEnginesJoinASplitSetExactly) {
  // Every thread of an unsharded engine calls field() on the split set at
  // once; one of them joins it, the rest must see the joined arrays.
  const Layout L({8, 12, 16});
  for (const char* spec : {"naive(threads=3)", "mwd(dw=4,bz=1,groups=3)"}) {
    FieldSet fs = random_set(L, 139), reference = random_set(L, 139);
    build_engine(kTwoShards, L)->run(fs, 2);
    ASSERT_NE(fs.parts(), nullptr);
    build_engine(spec, L, 3)->run(fs, 3);
    EXPECT_EQ(fs.parts(), nullptr) << spec;
    kernels::reference_step(reference, 5);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << spec;
  }
}

// ------------------------------------------------------------ halo exchange

/// Corrupt every ghost plane of a 3-shard split, refresh them with one
/// staged exchange round (reset_flow, then post and wait for every shard)
/// through `transport` (null = the exchange's default), and check the
/// refresh: ghosts equal the global planes, owned planes are untouched, and
/// the round moved exactly bytes_per_exchange().  Returns the transport's
/// name.
std::string refresh_corrupted_ghosts(std::unique_ptr<dist::Transport> transport) {
  Layout L({4, 5, 12});
  FieldSet global(L);
  em::build_random_stable(global, 7);

  Partitioner part(L.interior(), 3, 2);
  std::vector<std::unique_ptr<FieldSet>> sets;
  std::vector<FieldSet*> ptrs;
  for (int s = 0; s < 3; ++s) {
    sets.push_back(std::make_unique<FieldSet>(part.shard_layout(s)));
    part.scatter(global, *sets.back(), s);
    ptrs.push_back(sets.back().get());
  }
  for (int s = 0; s < 3; ++s) {
    const ShardExtent& e = part.shard(s);
    for (int c = 0; c < kernels::kNumComps; ++c) {
      grid::Field& f = sets[static_cast<std::size_t>(s)]->field(static_cast<kernels::Comp>(c));
      for (int g = e.ext_z0(); g < e.ext_z1(); ++g) {
        if (g >= e.z0 && g < e.z1) continue;  // owned
        for (int j = 0; j < 5; ++j)
          for (int i = 0; i < 4; ++i) f.set(i, j, e.to_local(g), {1e9, -1e9});
      }
    }
  }
  dist::HaloExchange halo(part, ptrs, std::move(transport));
  halo.reset_flow();
  for (int s = 0; s < 3; ++s) halo.post(s, 1);
  for (int s = 0; s < 3; ++s) halo.wait(s, 1);

  for (int s = 0; s < 3; ++s) {
    const ShardExtent& e = part.shard(s);
    double worst_ghost = 0.0, worst_owned = 0.0;
    for (int c = 0; c < kernels::kNumComps; ++c) {
      const grid::Field& f =
          sets[static_cast<std::size_t>(s)]->field(static_cast<kernels::Comp>(c));
      const grid::Field& g = global.field(static_cast<kernels::Comp>(c));
      for (int gz = e.ext_z0(); gz < e.ext_z1(); ++gz) {
        double& worst = (gz >= e.z0 && gz < e.z1) ? worst_owned : worst_ghost;
        for (int j = 0; j < 5; ++j)
          for (int i = 0; i < 4; ++i)
            worst = std::max(worst,
                             std::abs(f.at(i, j, e.to_local(gz)) - g.at(i, j, gz)));
      }
    }
    EXPECT_EQ(worst_ghost, 0.0) << "shard " << s;
    EXPECT_EQ(worst_owned, 0.0) << "shard " << s;
  }
  // One round moved (2 + 4 + 2) ghost planes of all 12 arrays.
  EXPECT_GT(halo.bytes_per_exchange(), 0);
  EXPECT_EQ(halo.take_stats().halo_bytes_moved, halo.bytes_per_exchange());
  EXPECT_EQ(halo.take_stats().halo_bytes_moved, 0);  // taking zeroes the counters
  return halo.transport().name();
}

TEST(HaloExchange, PullRefreshesGhostPlanesExactly) {
  EXPECT_EQ(refresh_corrupted_ghosts(nullptr), "local");
}

// ------------------------------------------------------- sharded equivalence

class ShardedEquivalence : public ::testing::Test {
 protected:
  /// Max |diff| between a sharded run and the serial reference on a small
  /// random-coefficient grid.
  double run_diff(dist::ShardedParams p, Extents e, int steps, grid::XBoundary bc,
                  std::uint64_t seed) {
    Layout layout(e);
    FieldSet reference(layout);
    em::build_random_stable(reference, seed);
    reference.set_x_boundary(bc);
    FieldSet fs(layout);
    em::build_random_stable(fs, seed);
    fs.set_x_boundary(bc);

    kernels::reference_step(reference, steps);
    auto engine = dist::make_sharded_engine(p);
    engine->run(fs, steps);
    last_stats_ = engine->stats();
    return FieldSet::max_field_diff(fs, reference);
  }

  exec::EngineStats last_stats_;
};

TEST_F(ShardedEquivalence, NaiveInnerMatchesBitForBit) {
  for (int k : {1, 2, 3}) {
    dist::ShardedParams p;
    p.num_shards = k;
    p.inners = {exec::parse_engine_spec("naive")};
    EXPECT_EQ(run_diff(p, {6, 7, 13}, 4, grid::XBoundary::Dirichlet, 31), 0.0)
        << "K=" << k;
    EXPECT_EQ(last_stats_.shards, k);
  }
}

TEST_F(ShardedEquivalence, PeriodicXMatchesBitForBit) {
  for (int k : {2, 3}) {
    dist::ShardedParams p;
    p.num_shards = k;
    EXPECT_EQ(run_diff(p, {6, 7, 13}, 4, grid::XBoundary::Periodic, 33), 0.0)
        << "K=" << k;
  }
}

TEST_F(ShardedEquivalence, DeepOverlapExchangeIntervalMatches) {
  for (int interval : {2, 3}) {
    dist::ShardedParams p;
    p.num_shards = 2;
    p.exchange_interval = interval;
    // 7 steps: exercises a partial final round as well.
    EXPECT_EQ(run_diff(p, {5, 6, 14}, 7, grid::XBoundary::Dirichlet, 35), 0.0)
        << "interval=" << interval;
  }
}

TEST_F(ShardedEquivalence, SpatialAndMwdInnersMatch) {
  dist::ShardedParams p;
  p.num_shards = 2;
  p.threads_per_shard = 2;
  p.inners = {exec::parse_engine_spec("spatial")};
  EXPECT_EQ(run_diff(p, {6, 8, 12}, 3, grid::XBoundary::Dirichlet, 41), 0.0);

  p.inners = {exec::parse_engine_spec("mwd(dw=4,groups=2)")};
  p.exchange_interval = 2;  // let the diamonds block two steps in time
  EXPECT_EQ(run_diff(p, {6, 8, 12}, 4, grid::XBoundary::Dirichlet, 43), 0.0);
}

TEST_F(ShardedEquivalence, ClampsShardCountOnTinyGrids) {
  dist::ShardedParams p;
  p.num_shards = 64;  // far more shards than planes
  p.exchange_interval = 2;
  EXPECT_EQ(run_diff(p, {5, 5, 6}, 3, grid::XBoundary::Dirichlet, 47), 0.0);
  EXPECT_LE(last_stats_.shards, 3);
  EXPECT_GE(last_stats_.shards, 1);
}

TEST_F(ShardedEquivalence, PerShardMwdParamsMatchBitForBit) {
  dist::ShardedParams p;
  p.num_shards = 2;
  p.exchange_interval = 2;
  p.threads_per_shard = 2;
  p.inners = {
      exec::parse_engine_spec("mwd(dw=4,groups=2)"),       // two groups of one
      exec::parse_engine_spec("mwd(dw=4,tc=2,groups=1)"),  // one group of two
  };
  EXPECT_EQ(run_diff(p, {6, 8, 12}, 4, grid::XBoundary::Dirichlet, 51), 0.0);
}

// ------------------------------------------------------- post/wait exchange

TEST_F(ShardedEquivalence, OverlappedExchangeMatchesBitForBitAllInners) {
  // The post/wait protocol only reorders independent work, so every inner
  // kind must stay bit-identical to the serial reference — including deep
  // intervals and a partial final round (7 steps, T=3).  The mixed set
  // gives each shard a different kind.
  const std::vector<std::vector<std::string>> inner_sets = {
      {"naive"},
      {"spatial"},
      {"spatial(by=2)"},
      {"mwd(dw=4,groups=2)"},
      {"wavefront(bz=2)"},
      {"wavefront(bz=2)", "spatial(by=3)", "mwd(dw=4,groups=2)"},
  };
  for (const std::vector<std::string>& inners : inner_sets) {
    for (int k : {2, 3}) {
      for (int interval : {1, 3}) {
        dist::ShardedParams p;
        p.num_shards = k;
        p.exchange_interval = interval;
        p.threads_per_shard = 2;
        p.inners.clear();
        for (const std::string& inner : inners) {
          p.inners.push_back(exec::parse_engine_spec(inner));
        }
        EXPECT_EQ(run_diff(p, {5, 8, 14}, 7, grid::XBoundary::Dirichlet, 53), 0.0)
            << p.describe();
        EXPECT_STREQ(last_stats_.kernel_isa, kernels::row_isa());
        EXPECT_GE(last_stats_.halo_wait_seconds, 0.0);
        EXPECT_GE(last_stats_.halo_hidden_seconds, 0.0);
        EXPECT_GE(last_stats_.halo_exposed_seconds(), 0.0);
        EXPECT_GT(last_stats_.halo_bytes_moved, 0);
      }
    }
  }
}

TEST_F(ShardedEquivalence, OverlappedPeriodicXMatchesBitForBit) {
  dist::ShardedParams p;
  p.num_shards = 3;
  p.exchange_interval = 2;
  EXPECT_EQ(run_diff(p, {6, 7, 13}, 5, grid::XBoundary::Periodic, 57), 0.0);
}

TEST_F(ShardedEquivalence, OverlapIsANoOpOnASingleShard) {
  // One shard has no ghost planes: the round loop runs with nothing to
  // exchange.
  dist::ShardedParams p;
  p.num_shards = 1;
  EXPECT_EQ(run_diff(p, {5, 5, 8}, 3, grid::XBoundary::Dirichlet, 59), 0.0);
  EXPECT_EQ(last_stats_.shards, 1);
  EXPECT_EQ(last_stats_.halo_bytes_moved, 0);
}

TEST(ShardedSpec, OverlapKeySelectsNothing) {
  // `overlap` stays accepted in every form and selects nothing: each form
  // builds the same engine, bit-identical to the serial reference.
  const Layout layout({6, 7, 16});
  FieldSet reference(layout);
  em::build_random_stable(reference, 97);
  kernels::reference_step(reference, 5);
  exec::BuildContext ctx;
  ctx.grid = layout.interior();
  ctx.threads = 2;
  std::string name;
  for (const char* spec : {"sharded(shards=2,interval=2,inner=naive)",
                           "sharded(shards=2,interval=2,overlap,inner=naive)",
                           "sharded(shards=2,interval=2,overlap=1,inner=naive)",
                           "sharded(shards=2,interval=2,overlap=0,inner=naive)"}) {
    auto engine = exec::EngineRegistry::global().build(spec, ctx);
    if (name.empty()) name = engine->name();
    EXPECT_EQ(engine->name(), name) << spec;
    FieldSet fs(layout);
    em::build_random_stable(fs, 97);
    engine->run(fs, 5);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << spec;
    EXPECT_EQ(engine->stats().shards, 2) << spec;
  }
}

// ------------------------------------------------------------- transports

namespace transport_seam {

/// Delegates every primitive to LocalTransport while counting calls — the
/// shape an MpiTransport takes, minus the ranks.  Registered by name, so
/// the test proves a new transport is a registry entry, not a refactor.
/// Counters are atomic: shard threads drive the primitives concurrently.
class CountingTransport final : public dist::Transport {
 public:
  struct Counts {
    std::atomic<int> stages{0};
    std::atomic<int> unstages{0};
  };

  explicit CountingTransport(Counts* counts)
      : counts_(counts), local_(dist::make_local_transport()) {}

  std::string name() const override { return "counting"; }
  void stage(const grid::FieldSet& src, dist::HaloBuffer& buf) override {
    ++counts_->stages;
    local_->stage(src, buf);
  }
  void unstage(grid::FieldSet& dst, const dist::HaloBuffer& buf, int dst_k0,
               int planes) override {
    ++counts_->unstages;
    local_->unstage(dst, buf, dst_k0, planes);
  }

 private:
  Counts* counts_;
  std::unique_ptr<dist::Transport> local_;
};

}  // namespace transport_seam

TEST(Transport, LocalIsRegisteredAndUnknownNamesThrow) {
  const std::vector<std::string> names = dist::transport_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "local"), names.end());
  EXPECT_EQ(dist::make_transport("local")->name(), "local");
  EXPECT_THROW(dist::make_transport("mpi-not-yet"), std::invalid_argument);
  // ShardedParams validates the transport name on the caller thread.
  dist::ShardedParams p;
  p.transport = "no-such-transport";
  EXPECT_THROW(dist::make_sharded_engine(p), std::invalid_argument);
}

TEST(Transport, ExplicitLocalTransportMatchesDefaultExchange) {
  // The same corrupted-ghost refresh as HaloExchange.PullRefreshesGhostPlanes,
  // but through an explicitly constructed LocalTransport.
  EXPECT_EQ(refresh_corrupted_ghosts(dist::make_local_transport()), "local");
}

TEST_F(ShardedEquivalence, RegisteredTransportDrivesTheExchange) {
  // A transport registered by name is selected through ShardedParams (and
  // therefore through `sharded(...,transport=...)` specs), carries every
  // plane and stays bit-exact — exactly the seam an MpiTransport plugs
  // into.
  static transport_seam::CountingTransport::Counts counts;
  dist::register_transport("counting", [] {
    return std::make_unique<transport_seam::CountingTransport>(&counts);
  });
  const int stages_before = counts.stages.load();
  const int unstages_before = counts.unstages.load();
  dist::ShardedParams p;
  p.num_shards = 3;
  p.exchange_interval = 2;
  p.transport = "counting";
  EXPECT_EQ(run_diff(p, {5, 6, 13}, 7, grid::XBoundary::Dirichlet, 83), 0.0);
  EXPECT_GT(counts.stages.load(), stages_before);
  EXPECT_GT(counts.unstages.load(), unstages_before);
  EXPECT_EQ(last_stats_.halo_staged_bytes, last_stats_.halo_unstaged_bytes);
}

TEST(Transport, UnknownNameErrorListsRegisteredTransports) {
  // The registry's listing error is the single source of truth for
  // spec-level rejection: both the factory and the sharded engine's
  // validation must name every registered transport.
  const auto expect_listing = [](const auto& fn) {
    try {
      fn();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("registered:"), std::string::npos) << msg;
      EXPECT_NE(msg.find("local"), std::string::npos) << msg;
      EXPECT_NE(msg.find("shm"), std::string::npos) << msg;
    }
  };
  expect_listing([] { (void)dist::make_transport("warp-drive"); });
  expect_listing([] { dist::require_transport("warp-drive"); });
  expect_listing([] {
    dist::ShardedParams p;
    p.transport = "warp-drive";
    (void)dist::make_sharded_engine(p);
  });
  EXPECT_NO_THROW(dist::require_transport("shm"));
}

// ------------------------------------------ transport conformance suite

/// Every registered transport must satisfy the seam contract on the same
/// bar LocalTransport set: bit-exact equivalence with the serial reference
/// at shallow and deep intervals, with a partial final round, and truthful
/// staged accounting.  New transports get this suite for free — they only
/// have to register.
class TransportConformance : public ShardedEquivalence,
                             public ::testing::WithParamInterface<std::string> {};

TEST_P(TransportConformance, BitExactWithStagedAccounting) {
  const std::string name = GetParam();
  try {
    (void)dist::make_transport(name);
  } catch (const std::runtime_error& e) {
    // A registered transport may refuse this process (e.g. mpi without
    // MPI_Init); that is a deployment constraint, not a conformance
    // failure.
    GTEST_SKIP() << name << " unavailable here: " << e.what();
  }
  for (int interval : {1, 3}) {
    dist::ShardedParams p;
    p.num_shards = 3;
    p.exchange_interval = interval;
    p.transport = name;
    EXPECT_EQ(run_diff(p, {5, 6, 14}, 7, grid::XBoundary::Dirichlet, 89), 0.0)
        << "transport=" << name << " T=" << interval;
    EXPECT_EQ(last_stats_.halo_transport, name);
    // Staged accounting: every donated byte was packed once and unpacked
    // once, and both halves were timed.
    EXPECT_GT(last_stats_.halo_staged_bytes, 0) << "transport=" << name << " T=" << interval;
    EXPECT_EQ(last_stats_.halo_staged_bytes, last_stats_.halo_unstaged_bytes);
    EXPECT_GE(last_stats_.halo_stage_seconds, 0.0);
    EXPECT_GE(last_stats_.halo_unstage_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, TransportConformance,
                         ::testing::ValuesIn(dist::transport_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ------------------------------------------------ shm ring-slot fuzzing

TEST(ShmTransportFuzz, CorruptedSlotHeadersSurfaceAsErrorsNeverUB) {
  // Stage one donation, then corrupt each header field in turn: unstage
  // must throw a descriptive runtime_error for every mutation — the wire
  // format's validation contract (src/dist/README.md) — and never misread.
  Layout L({4, 5, 12});
  FieldSet src(L);
  em::build_random_stable(src, 91);
  for (int field = 0; field < 5; ++field) {
    dist::ShmTransport t;
    dist::HaloBuffer buf;
    buf.planes = 2;
    buf.src_k0 = 3;
    buf.src_shard = 0;
    buf.dst_shard = 1;
    t.stage(src, buf);
    dist::ShmSlotHeader* h = t.debug_slot_header(0, 1, 1 % dist::kRingSlots);
    ASSERT_NE(h, nullptr) << "mutation " << field;
    switch (field) {
      case 0: h->magic.store(0xdeadbeefu, std::memory_order_relaxed); break;
      case 1: h->round.store(7, std::memory_order_relaxed); break;      // wrong seq
      case 2: h->round.store(0, std::memory_order_relaxed); break;      // stale seq
      case 3: h->payload_bytes.store(12, std::memory_order_relaxed); break;  // truncated
      case 4: h->state.store(dist::kSlotFree, std::memory_order_relaxed); break;
    }
    FieldSet dst(L);
    em::build_random_stable(dst, 92);
    EXPECT_THROW(t.unstage(dst, buf, 0, 2), std::runtime_error)
        << "mutation " << field;
  }

  // The clean path through the same ring matches LocalTransport exactly.
  dist::ShmTransport t;
  dist::HaloBuffer buf;
  buf.planes = 2;
  buf.src_k0 = 3;
  buf.src_shard = 0;
  buf.dst_shard = 1;
  t.stage(src, buf);
  FieldSet dst(L), expected(L);
  em::build_random_stable(dst, 92);
  em::build_random_stable(expected, 92);
  ASSERT_NO_THROW(t.unstage(dst, buf, 0, 2));

  std::unique_ptr<dist::Transport> local = dist::make_local_transport();
  dist::HaloBuffer lbuf;
  lbuf.planes = 2;
  lbuf.src_k0 = 3;
  lbuf.data.assign(static_cast<std::size_t>(L.stride_z()) * 2 * 2 *
                       static_cast<std::size_t>(kernels::kNumComps),
                   0.0);
  local->stage(src, lbuf);
  local->unstage(expected, lbuf, 0, 2);
  EXPECT_EQ(FieldSet::max_field_diff(dst, expected), 0.0);

  // Unstaging a channel no producer ever created is an error, not a hang.
  dist::ShmTransport fresh;
  dist::HaloBuffer ghost;
  ghost.planes = 2;
  ghost.src_k0 = 0;
  ghost.src_shard = 2;
  ghost.dst_shard = 1;
  FieldSet dst2(L);
  em::build_random_stable(dst2, 93);
  EXPECT_THROW(fresh.unstage(dst2, ghost, 0, 2), std::runtime_error);
}

// ------------------------------------------------- prepared-state reuse

TEST(ShardedPrepare, RepeatedRunsReuseShardStateAndStayExact) {
  // Inner builds are counted: the shard state (FieldSets, halo, inners) is
  // built by the first run, reused while the extents stay, and rebuilt —
  // transparently — for new extents.
  std::atomic<int> builds{0};
  exec::EngineRegistry reg;
  reg.register_builder("counted_naive", [&builds](const exec::EngineSpec&,
                                                  const exec::BuildContext& ctx) {
    ++builds;
    return exec::make_naive_engine(ctx.resolved_threads());
  });
  const Layout layout({5, 6, 12});
  dist::ShardedParams p;
  p.num_shards = 2;
  p.inners = {exec::parse_engine_spec("counted_naive")};
  p.registry = &reg;
  auto engine = dist::make_sharded_engine(p);
  EXPECT_EQ(builds.load(), 1);  // the constructor's validation build

  // Flow counters must reset across reused runs.
  for (int rep = 0; rep < 3; ++rep) {
    FieldSet reference(layout);
    em::build_random_stable(reference, 61 + static_cast<unsigned>(rep));
    FieldSet fs(layout);
    em::build_random_stable(fs, 61 + static_cast<unsigned>(rep));
    kernels::reference_step(reference, 3);
    engine->run(fs, 3);
    EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0) << "rep " << rep;
    EXPECT_EQ(builds.load(), 1 + 2) << "rep " << rep;
  }

  // A different grid forces a transparent rebuild.
  const Layout other({4, 5, 9});
  FieldSet reference(other);
  em::build_random_stable(reference, 67);
  FieldSet fs(other);
  em::build_random_stable(fs, 67);
  kernels::reference_step(reference, 2);
  engine->run(fs, 2);
  EXPECT_EQ(FieldSet::max_field_diff(fs, reference), 0.0);
  EXPECT_EQ(builds.load(), 1 + 2 + 2);
}

// ------------------------------------------------- shard failure handling

namespace failure {

/// Inner engine that throws after `good_chunks` successful chunk runs, for
/// as long as `armed` (shared, may be null = always) stays positive; each
/// throw spends one.
class FlakyEngine final : public exec::Engine {
 public:
  FlakyEngine(int threads, int good_chunks, std::atomic<int>* armed)
      : threads_(threads), good_chunks_(good_chunks), armed_(armed),
        real_(exec::make_naive_engine(threads)) {}

  std::string name() const override { return "flaky"; }
  int threads() const override { return threads_; }
  void run(grid::FieldSet& fs, int steps) override {
    if (runs_++ >= good_chunks_ && (armed_ == nullptr || armed_->fetch_sub(1) > 0)) {
      throw std::runtime_error("injected shard failure");
    }
    real_->run(fs, steps);
    stats_ = real_->stats();
  }

 private:
  int threads_;
  int good_chunks_;
  std::atomic<int>* armed_;
  int runs_ = 0;
  std::unique_ptr<exec::Engine> real_;
};

/// A registry holding "naive" and "flaky(good=N)": the kinds the failure
/// tests compose per-shard inner sets from.
void register_flaky(exec::EngineRegistry& reg, std::atomic<int>* armed = nullptr) {
  reg.register_builder("naive",
                       [](const exec::EngineSpec&, const exec::BuildContext& ctx) {
                         return exec::make_naive_engine(ctx.resolved_threads());
                       });
  reg.register_builder("flaky", [armed](const exec::EngineSpec& spec,
                                        const exec::BuildContext& ctx) {
    const int good = static_cast<int>(spec.get_int("good", 0));
    return std::make_unique<FlakyEngine>(ctx.resolved_threads(), good, armed);
  });
}

}  // namespace failure

TEST(ShardedFailure, ThrowingInnerEngineCannotDeadlockOtherShards) {
  // Shard 1 of 3 throws — immediately, or mid-run after one good exchange
  // round — while shards 0 and 2 keep draining the round schedule.  The
  // run must terminate and rethrow the injected exception on the caller:
  // no shard may be left spinning on a post/wait round counter.
  exec::EngineRegistry reg;
  failure::register_flaky(reg);
  for (int good_chunks : {0, 1}) {
    dist::ShardedParams p;
    p.num_shards = 3;
    p.exchange_interval = 1;
    const std::string flaky = "flaky(good=" + std::to_string(good_chunks) + ")";
    p.inners = {exec::parse_engine_spec("naive"), exec::parse_engine_spec(flaky),
                exec::parse_engine_spec("naive")};
    p.registry = &reg;
    const Layout layout({5, 5, 12});
    FieldSet fs(layout);
    em::build_random_stable(fs, 71);
    auto engine = dist::make_sharded_engine(p);
    EXPECT_THROW(engine->run(fs, 5), std::runtime_error) << "good_chunks=" << good_chunks;
  }
}

TEST(ShardedFailure, OverlappedRunRecoversAfterAFailedRun) {
  // After a failed run, the same prepared engine — the same shard state
  // and inners, the flaky one now disarmed — must run cleanly again (flow
  // counters reset per run) and stay bit-exact.
  std::atomic<int> armed{1};
  exec::EngineRegistry reg;
  failure::register_flaky(reg, &armed);
  dist::ShardedParams p;
  p.num_shards = 2;
  p.inners = {exec::parse_engine_spec("naive"), exec::parse_engine_spec("flaky(good=1)")};
  p.registry = &reg;
  const Layout layout({5, 5, 12});
  FieldSet fs(layout);
  em::build_random_stable(fs, 73);
  auto engine = dist::make_sharded_engine(p);
  EXPECT_THROW(engine->run(fs, 4), std::runtime_error);

  FieldSet reference(layout);
  em::build_random_stable(reference, 79);
  FieldSet fs2(layout);
  em::build_random_stable(fs2, 79);
  kernels::reference_step(reference, 4);
  engine->run(fs2, 4);
  EXPECT_EQ(FieldSet::max_field_diff(fs2, reference), 0.0);
}

/// Disarms fault injection after each test, pass or fail.
class ShardedHaloFault : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(ShardedHaloFault, ThrowingHaloWaitFailsTheRunCleanly) {
  // The second unstage of the run throws inside a shard's halo wait, before
  // its MWD inner (two one-thread groups) starts the round.  The run must
  // rethrow the injected error after every shard has joined; the same
  // engine must then run bit-exact.
  dist::ShardedParams p;
  p.num_shards = 3;
  p.exchange_interval = 1;
  p.threads_per_shard = 2;
  p.inners = {exec::parse_engine_spec("mwd(dw=4,groups=2)")};
  auto engine = dist::make_sharded_engine(p);
  const Layout layout({5, 8, 14});
  FieldSet fs(layout);
  em::build_random_stable(fs, 77);
  fault::configure("transport.unstage=once:2");
  EXPECT_THROW(engine->run(fs, 4), fault::InjectedFault);
  EXPECT_EQ(fault::stats().at("transport.unstage").fires, 1u);

  FieldSet reference(layout);
  em::build_random_stable(reference, 81);
  FieldSet fs2(layout);
  em::build_random_stable(fs2, 81);
  kernels::reference_step(reference, 4);
  engine->run(fs2, 4);
  EXPECT_EQ(FieldSet::max_field_diff(fs2, reference), 0.0);
}

TEST(ShardedFailure, ThrowingInnerBuilderPropagatesFromRun) {
  // The builder succeeds on the caller thread (the constructor's
  // validation build, and shard 0, which ThreadTeam runs there) and throws
  // inside every other shard thread.
  const std::thread::id caller = std::this_thread::get_id();
  exec::EngineRegistry reg;
  reg.register_builder("fails_off_caller", [caller](const exec::EngineSpec&,
                                                    const exec::BuildContext& ctx) {
    if (std::this_thread::get_id() != caller) {
      throw std::runtime_error("injected builder failure");
    }
    return exec::make_naive_engine(ctx.resolved_threads());
  });
  dist::ShardedParams p;
  p.num_shards = 2;
  p.inners = {exec::parse_engine_spec("fails_off_caller")};
  p.registry = &reg;
  auto engine = dist::make_sharded_engine(p);
  const Layout layout({5, 5, 12});
  FieldSet fs(layout);
  em::build_random_stable(fs, 75);
  EXPECT_THROW(engine->run(fs, 2), std::runtime_error);
}

// ------------------------------------------------------------ shard tuning

TEST(ShardTuning, EnumerateShardCountsRespectsLimits) {
  tune::SpaceLimits limits;
  limits.max_shards = 8;
  limits.min_shard_planes = 8;
  // Plenty of planes: capped by threads, then max_shards.
  EXPECT_EQ(tune::enumerate_shard_counts(4, {32, 32, 256}, limits),
            (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(tune::enumerate_shard_counts(16, {32, 32, 256}, limits),
            (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
  // Few planes: capped by min_shard_planes.
  EXPECT_EQ(tune::enumerate_shard_counts(16, {32, 32, 17}, limits),
            (std::vector<int>{1, 2}));
  // Always contains K = 1, even when nothing else fits.
  EXPECT_EQ(tune::enumerate_shard_counts(1, {32, 32, 4}, limits),
            (std::vector<int>{1}));
}

TEST(ShardTuning, ChooseShardCountReturnsAFeasibleChoice) {
  tune::ShardedTuneConfig cfg;
  cfg.threads = 4;
  cfg.grid = {64, 64, 128};
  cfg.machine = models::haswell18();
  cfg.timed_refinement = false;
  const tune::ShardedCandidate best = tune::autotune_sharded(cfg).best;
  const int k = best.plan.num_shards;
  EXPECT_GE(k, 1);
  EXPECT_LE(k, 4);
  EXPECT_GE(best.plan.exchange_interval, 1);
  EXPECT_GT(best.predicted_mlups, 0.0);
  // Every shard's tiling must fit the per-shard thread budget.
  ASSERT_EQ(best.plan.per_shard.size(), static_cast<std::size_t>(k));
  for (const exec::MwdParams& tiling : best.plan.per_shard) {
    EXPECT_EQ(tiling.threads(), std::max(1, cfg.threads / k));
  }

  // One thread, thin grid: decomposition cannot help, K must stay 1.
  cfg.threads = 1;
  cfg.grid = {32, 32, 12};
  EXPECT_EQ(tune::autotune_sharded(cfg).best.plan.num_shards, 1);
}

// ----------------------------------------------------------------- topology

TEST(NumaTopology, DetectAlwaysYieldsAUsableTopology) {
  const dist::NumaTopology topo = dist::NumaTopology::detect();
  ASSERT_GE(topo.num_nodes, 1);
  ASSERT_EQ(static_cast<int>(topo.node_cpus.size()), topo.num_nodes);
  std::set<int> seen;
  for (const auto& node : topo.node_cpus) {
    EXPECT_FALSE(node.empty());
    for (int c : node) {
      EXPECT_GE(c, 0);
      EXPECT_TRUE(seen.insert(c).second) << "cpu " << c << " on two nodes";
    }
  }
}

TEST(NumaTopology, NodeForShardCoversAllNodesInOrder) {
  dist::NumaTopology topo;
  topo.num_nodes = 2;
  topo.node_cpus = {{0, 1}, {2, 3}};
  EXPECT_EQ(dist::node_for_shard(topo, 0, 4), 0);
  EXPECT_EQ(dist::node_for_shard(topo, 1, 4), 0);
  EXPECT_EQ(dist::node_for_shard(topo, 2, 4), 1);
  EXPECT_EQ(dist::node_for_shard(topo, 3, 4), 1);
  EXPECT_EQ(dist::node_for_shard(dist::NumaTopology::single_node(4), 3, 4), 0);
}

TEST(MachineDetect, ReportsNumaAndSocketTopology) {
  const util::HostInfo host = util::detect_host();
  EXPECT_GE(host.num_sockets, 1);
  EXPECT_GE(host.num_numa_nodes, 1);
  ASSERT_EQ(static_cast<int>(host.numa_node_cpus.size()), host.num_numa_nodes);
  int cpus = 0;
  for (const auto& node : host.numa_node_cpus) cpus += static_cast<int>(node.size());
  EXPECT_GE(cpus, 1);
}

TEST(MachineDetect, ParseCpulist) {
  EXPECT_EQ(util::parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(util::parse_cpulist("0,2,4-5"), (std::vector<int>{0, 2, 4, 5}));
  EXPECT_EQ(util::parse_cpulist("7"), (std::vector<int>{7}));
  EXPECT_TRUE(util::parse_cpulist("").empty());
  EXPECT_TRUE(util::parse_cpulist("junk").empty());
}

}  // namespace
