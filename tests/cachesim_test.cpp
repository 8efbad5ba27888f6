// Unit tests for the cache simulator and the engine traffic replays.
#include <gtest/gtest.h>

#include "cachesim/cache.hpp"
#include "cachesim/hierarchy.hpp"
#include "cachesim/replay.hpp"
#include "exec/traversal.hpp"
#include "grid/layout.hpp"
#include "kernels/components.hpp"
#include "models/code_balance.hpp"
#include "tiling/diamond.hpp"

namespace {

using namespace emwd;
using cachesim::Cache;
using cachesim::CacheConfig;
using cachesim::Hierarchy;

CacheConfig small_cache(std::uint64_t bytes, int assoc = 4) {
  CacheConfig cfg;
  cfg.size_bytes = bytes;
  cfg.associativity = assoc;
  cfg.line_bytes = 64;
  return cfg;
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache(4096));
  EXPECT_FALSE(c.access(0, false));
  EXPECT_TRUE(c.access(0, false));
  EXPECT_TRUE(c.access(63, false));   // same line
  EXPECT_FALSE(c.access(64, false));  // next line
  EXPECT_EQ(c.stats().loads, 4u);
  EXPECT_EQ(c.stats().load_misses, 2u);
}

TEST(Cache, LruEvictionWithinASet) {
  // 4-way set: touching 5 distinct lines mapping to one set evicts the LRU.
  Cache c(small_cache(4096, 4));
  const int sets = c.num_sets();
  auto addr = [&](int i) { return static_cast<std::uint64_t>(i) * sets * 64; };
  for (int i = 0; i < 4; ++i) c.access(addr(i), false);
  c.access(addr(0), false);  // refresh line 0: line 1 is now LRU
  c.access(addr(4), false);  // evicts line 1
  EXPECT_TRUE(c.access(addr(0), false));
  EXPECT_FALSE(c.access(addr(1), false));  // was evicted
}

TEST(Cache, WritebackOnDirtyEvictionAndFlush) {
  Cache c(small_cache(4096, 4));
  const int sets = c.num_sets();
  auto addr = [&](int i) { return static_cast<std::uint64_t>(i) * sets * 64; };
  c.access(addr(0), true);  // dirty
  for (int i = 1; i <= 4; ++i) c.access(addr(i), false);  // evicts dirty line 0
  EXPECT_EQ(c.stats().writebacks, 1u);
  c.access(addr(5), true);
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 2u);
  EXPECT_EQ(c.resident_lines(), 0);
}

TEST(Cache, AccessRangeTouchesEveryLine) {
  Cache c(small_cache(1 << 16));
  c.access_range(10, 200, false);  // spans lines 0..3 (bytes 10..209)
  EXPECT_EQ(c.stats().loads, 4u);
  c.reset_stats();
  c.access_range(64, 64, false);  // exactly one line
  EXPECT_EQ(c.stats().loads, 1u);
  c.access_range(0, 0, false);  // empty: no access
  EXPECT_EQ(c.stats().loads, 1u);
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(Cache(CacheConfig{0, 4, 64}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{4096, 0, 64}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{4096, 4, 63}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{100, 4, 64}), std::invalid_argument);
}

TEST(Cache, BytesAccounting) {
  Cache c(small_cache(4096));
  c.access(0, false);
  c.access(64, true);
  EXPECT_EQ(c.bytes_read(), 128u);  // two fills
  c.flush();
  EXPECT_EQ(c.bytes_written(), 64u);  // one dirty line
  EXPECT_EQ(c.bytes_total(), 192u);
}

TEST(Hierarchy, LlcOnlyStreamTraffic) {
  Hierarchy h = Hierarchy::llc_only(1 << 16);
  // Stream 1 MiB of reads: every line misses exactly once per pass through
  // a working set 16x the cache.
  const std::uint64_t bytes = 1u << 20;
  h.access_range(0, bytes, false);
  EXPECT_EQ(h.dram_read_bytes(), bytes);
  EXPECT_EQ(h.dram_write_bytes(), 0u);
  h.flush();
  EXPECT_EQ(h.dram_write_bytes(), 0u);  // nothing dirty
}

TEST(Hierarchy, DirtyLinesReachDramExactlyOnce) {
  Hierarchy h = Hierarchy::llc_only(1 << 16);
  h.access_range(0, 4096, true);
  EXPECT_EQ(h.dram_read_bytes(), 4096u);  // write-allocate fills
  h.flush();
  EXPECT_EQ(h.dram_write_bytes(), 4096u);
  // Flushing twice adds nothing.
  h.flush();
  EXPECT_EQ(h.dram_write_bytes(), 4096u);
}

TEST(Hierarchy, TwoLevelFiltersTraffic) {
  std::vector<CacheConfig> cfgs{small_cache(4096), small_cache(1 << 16)};
  Hierarchy h(cfgs);
  // Working set fits L2 but not L1: second pass hits L2, no extra DRAM.
  h.access_range(0, 32768, false);
  const std::uint64_t after_first = h.dram_read_bytes();
  h.access_range(0, 32768, false);
  EXPECT_EQ(h.dram_read_bytes(), after_first);
}

TEST(Hierarchy, ArrayAddressesAreDisjoint) {
  // 40 arrays at < 64 GiB spacing never alias.
  for (int a = 0; a < 40; ++a) {
    for (int b = a + 1; b < 40; ++b) {
      EXPECT_NE(cachesim::array_addr(a, 0) >> 36, cachesim::array_addr(b, 0) >> 36);
    }
  }
}

TEST(Replay, TouchCompRowLineCounts) {
  grid::Layout L({16, 4, 4});
  Hierarchy h = Hierarchy::llc_only(1 << 22);
  // Hzx: no source -> 5 distinct arrays + 2 shifted partner ranges, one
  // write range.  16 cells * 16 B = 256 B = 4 lines per range.
  cachesim::touch_comp_row(h, L, kernels::Comp::Hzx, 0, 16, 1, 1);
  // Reads: X,t,c, A,B, Ash,Bsh = 7 ranges; write X = 1 range (hits).
  const auto& llc = h.level(0);
  EXPECT_EQ(llc.stats().stores, 4u);          // write pass over X
  EXPECT_GE(llc.stats().loads, 7u * 4u - 8u); // shifted rows may share lines
}

TEST(Replay, NaiveWithInfiniteCacheIsCompulsoryTraffic) {
  // With an effectively infinite LLC, multi-step traffic collapses to one
  // fill per touched line plus one write-back per written line.
  grid::Layout L({16, 8, 8});
  Hierarchy h = Hierarchy::llc_only(1ull << 30);
  const auto r = cachesim::replay_spatial(L, 3, L.ny(), h);
  EXPECT_EQ(r.lups, 16 * 8 * 8 * 3);
  // Upper bound: all 40 arrays fully read once + 12 written once, padded
  // rows included.  Lower bound: the interior bytes.
  const double cells = 16 * 8 * 8;
  EXPECT_GE(r.read_bytes, 40 * cells * 16 * 0.9);
  EXPECT_LE(r.read_bytes, 40 * cells * 16 * 2.5);  // halo/padding slack
  EXPECT_GE(r.write_bytes, 12 * cells * 16 * 0.9);
  EXPECT_LE(r.write_bytes, 12 * cells * 16 * 2.5);
}

TEST(Replay, NaiveStreamingMatchesPaperModel) {
  // Cache far smaller than one x-y layer set: every nest streams from DRAM,
  // code balance must approach the paper's Eq. 8 value of 1344 B/LUP.
  grid::Layout L({32, 32, 8});
  Hierarchy h = Hierarchy::llc_only(1 << 16);  // 64 KiB: tiny
  const auto r = cachesim::replay_spatial(L, 2, L.ny(), h);
  EXPECT_NEAR(r.bytes_per_lup(), models::naive_bytes_per_lup(), 0.15 * 1344);
}

TEST(Replay, SpatialBlockingSavesTheShiftedLayerTraffic) {
  // Cache sized so two *blocked* layers fit but two full layers do not:
  // naive streams at ~Eq. 8 (1344 B/LUP) while y-blocking restores the
  // layer condition and lands at ~Eq. 9 (1216 B/LUP).
  grid::Layout L({32, 32, 8});
  const std::uint64_t llc = 1 << 16;  // 64 KiB << 6 arrays * one 32x32 layer
  Hierarchy h1 = Hierarchy::llc_only(llc);
  const auto naive = cachesim::replay_spatial(L, 2, L.ny(), h1);
  Hierarchy h2 = Hierarchy::llc_only(llc);
  const auto spatial = cachesim::replay_spatial(L, 2, /*block_y=*/4, h2);
  EXPECT_LT(spatial.bytes_per_lup(), naive.bytes_per_lup());
  EXPECT_NEAR(naive.bytes_per_lup(), models::naive_bytes_per_lup(), 0.12 * 1344);
  EXPECT_NEAR(spatial.bytes_per_lup(), models::spatial_bytes_per_lup(), 0.12 * 1216);
}

TEST(Replay, MwdCutsTrafficWellBelowSpatial) {
  // A diamond tile that fits the simulated LLC must bring bytes/LUP far
  // below spatial blocking (the whole point of the paper).
  grid::Layout L({24, 24, 24});
  const int dw = 4, bz = 2;
  exec::MwdParams p;
  p.dw = dw;
  p.bz = bz;
  Hierarchy h = Hierarchy::llc_only(8ull << 20);
  const auto r = cachesim::replay_mwd(L, 8, p, h);
  EXPECT_EQ(r.lups, 24 * 24 * 24 * 8);
  EXPECT_LT(r.bytes_per_lup(), 0.6 * models::spatial_bytes_per_lup());
  // Bounded by the Eq. 12 model from above (the model assumes each diamond
  // reloads its footprint; a roomy cache also keeps data across tiles,
  // which can only reduce traffic) and sanity-bounded from below.
  EXPECT_LT(r.bytes_per_lup(), 1.3 * models::diamond_bytes_per_lup(dw));
  EXPECT_GT(r.bytes_per_lup(), 0.1 * models::diamond_bytes_per_lup(dw));
}

TEST(Replay, OneGroupMwdReplayIsTheEnginesTileTraversal) {
  // With one thread group the replayed stream must be the engine's: the
  // tiling's tiles in order, each walked by exec::traverse_tile.  The cache
  // holds a fraction of a tile, so any change of order shows as traffic.
  grid::Layout L({16, 24, 12});
  const int steps = 4;
  exec::MwdParams params;
  params.dw = 4;
  params.bz = 2;
  const std::uint64_t llc = 1 << 17;
  Hierarchy replayed_h = Hierarchy::llc_only(llc);
  const auto replayed = cachesim::replay_mwd(L, steps, params, replayed_h);

  Hierarchy walked_h = Hierarchy::llc_only(llc);
  const tiling::DiamondTiling dt(params.dw, L.ny(), steps);
  std::int64_t row_cells = 0;
  for (const tiling::TileCoord& tile : dt.tiles()) {
    exec::traverse_tile(
        dt, tile, params.bz, L.nz(), exec::TgShape{}, exec::TgSlot{},
        [&](kernels::Comp comp, int /*s*/, int y, int z) {
          cachesim::touch_comp_row(walked_h, L, comp, 0, L.nx(), y, z);
          row_cells += L.nx();
        },
        [] {});
  }
  walked_h.flush();
  EXPECT_EQ(replayed.lups, static_cast<std::int64_t>(L.interior().cells()) * steps);
  EXPECT_EQ(replayed.lups, row_cells / kernels::kNumComps);
  EXPECT_EQ(replayed.read_bytes, walked_h.dram_read_bytes());
  EXPECT_EQ(replayed.write_bytes, walked_h.dram_write_bytes());
}

TEST(Replay, MwdTrafficDegradesWhenTilesOutgrowTheCache) {
  grid::Layout L({24, 24, 24});
  exec::MwdParams p;
  p.dw = 4;
  p.bz = 2;
  Hierarchy big = Hierarchy::llc_only(16ull << 20);
  Hierarchy tiny = Hierarchy::llc_only(1 << 18);
  const auto fits = cachesim::replay_mwd(L, 4, p, big);
  const auto thrashes = cachesim::replay_mwd(L, 4, p, tiny);
  EXPECT_GT(thrashes.bytes_per_lup(), 1.5 * fits.bytes_per_lup());
}

TEST(Replay, MoreThreadGroupsNeedMoreCache) {
  // Same total cache: 4 concurrent single-thread tiles (1WD-style) generate
  // more DRAM traffic than 1 tile using the whole cache (the paper's core
  // argument for cache block sharing).
  // Cache sized so ONE Eq. 11 tile fits comfortably but four concurrent
  // tiles overflow it (Cs(4,2,32) ~ 0.3 MiB each).
  grid::Layout L({32, 32, 24});
  exec::MwdParams one;
  one.dw = 4;
  one.bz = 2;
  one.num_tgs = 1;
  exec::MwdParams four = one;
  four.num_tgs = 4;
  const std::uint64_t llc = 1ull << 19;  // 0.5 MiB
  Hierarchy h1 = Hierarchy::llc_only(llc);
  Hierarchy h4 = Hierarchy::llc_only(llc);
  const auto r1 = cachesim::replay_mwd(L, 8, one, h1);
  const auto r4 = cachesim::replay_mwd(L, 8, four, h4);
  EXPECT_GT(r4.bytes_per_lup(), 1.2 * r1.bytes_per_lup());
}

TEST(Replay, SingleTileCompulsoryTrafficTracksEq12) {
  grid::Layout L({32, 64, 16});
  for (int dw : {2, 4, 8}) {
    Hierarchy inf = Hierarchy::llc_only(1ull << 30);
    const auto r = cachesim::replay_single_tile(L, dw, 2, inf);
    EXPECT_GT(r.lups, 0);
    const double model = models::diamond_bytes_per_lup(dw);
    // Same 1/dw shape; constants differ by halo/padding effects.
    EXPECT_NEAR(r.bytes_per_lup(), model, 0.45 * model) << "dw=" << dw;
  }
}

TEST(Replay, TileWorkingSetScalesLikeEq11) {
  grid::Layout L({32, 96, 16});
  const auto ws_d4 = cachesim::tile_working_set_bytes(L, 4, 2);
  const auto ws_d8 = cachesim::tile_working_set_bytes(L, 8, 2);
  EXPECT_GT(ws_d4, 0u);
  // Eq. 11 is quadratic-ish in dw at fixed bz: doubling dw should grow the
  // working set by clearly more than 2x but less than 8x.
  EXPECT_GT(ws_d8, 2u * ws_d4);
  EXPECT_LT(ws_d8, 8u * ws_d4);
}

TEST(ReplayPrivate, AccountingIsConsistent) {
  grid::Layout L({24, 24, 16});
  exec::MwdParams p;
  p.dw = 4;
  p.bz = 2;
  p.num_tgs = 2;
  const auto r = cachesim::replay_mwd_private(L, 4, p, 256u << 10, 8u << 20);
  EXPECT_EQ(r.lups, 24 * 24 * 16 * 4);
  // The LLC can only see traffic the private caches emitted, and DRAM can
  // only see what the LLC missed.
  EXPECT_GT(r.private_to_llc_bytes, 0u);
  EXPECT_LE(r.dram_read_bytes + r.dram_write_bytes, r.private_to_llc_bytes * 2);
  EXPECT_GT(r.dram_bytes_per_lup(), 0.0);
  EXPECT_GT(r.llc_bytes_per_lup(), r.dram_bytes_per_lup());
}

TEST(ReplayPrivate, PrivateCachesFilterLlcTraffic) {
  // Bigger private caches must reduce the private->LLC traffic (the FED
  // argument: per-thread reuse is served privately), while DRAM traffic
  // stays put as long as the shared LLC holds the tile either way.
  grid::Layout L({24, 24, 16});
  exec::MwdParams p;
  p.dw = 4;
  p.bz = 2;
  p.num_tgs = 2;
  const auto small = cachesim::replay_mwd_private(L, 4, p, 64u << 10, 8u << 20);
  const auto large = cachesim::replay_mwd_private(L, 4, p, 1u << 20, 8u << 20);
  EXPECT_LT(large.private_to_llc_bytes, small.private_to_llc_bytes);
  EXPECT_NEAR(large.dram_bytes_per_lup(), small.dram_bytes_per_lup(),
              0.35 * small.dram_bytes_per_lup());
}

TEST(ReplayPrivate, SharedLlcStillBoundsDramTraffic) {
  // Whatever the private layer does, the DRAM traffic of the two-level
  // replay must track the single-LLC replay of the same configuration.
  grid::Layout L({24, 24, 16});
  exec::MwdParams p;
  p.dw = 4;
  p.bz = 2;
  p.num_tgs = 2;
  const std::uint64_t llc = 8u << 20;
  Hierarchy h = Hierarchy::llc_only(llc);
  const auto flat = cachesim::replay_mwd(L, 4, p, h);
  const auto two = cachesim::replay_mwd_private(L, 4, p, 256u << 10, llc);
  EXPECT_NEAR(two.dram_bytes_per_lup(), flat.bytes_per_lup(),
              0.4 * flat.bytes_per_lup());
}

}  // namespace
