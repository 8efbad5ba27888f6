// Tiling geometry proofs-by-exhaustion: tessellation, dependency legality,
// DAG structure, wavefront windows and the FIFO queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "tiling/dag.hpp"
#include "tiling/diamond.hpp"
#include "tiling/wavefront.hpp"

namespace {

using namespace emwd::tiling;

struct Case {
  int dw, ny, nt;
};

class DiamondGeometry : public ::testing::TestWithParam<Case> {};

TEST_P(DiamondGeometry, TessellationCoversEveryCellExactlyOnce) {
  const auto [dw, ny, nt] = GetParam();
  DiamondTiling dt(dw, ny, nt);
  // (y, s) -> covering tile count.
  std::map<std::pair<int, int>, int> cover;
  for (const TileCoord& t : dt.tiles()) {
    for (const RowSlice& sl : dt.slices(t)) {
      for (int y = sl.y_lo; y < sl.y_hi; ++y) cover[{y, sl.s}]++;
    }
  }
  ASSERT_EQ(cover.size(), static_cast<std::size_t>(ny) * (2 * nt));
  for (int s = 0; s < 2 * nt; ++s) {
    for (int y = 0; y < ny; ++y) {
      auto it = cover.find({y, s});
      ASSERT_NE(it, cover.end()) << "uncovered cell y=" << y << " s=" << s;
      EXPECT_EQ(it->second, 1) << "multiply covered cell y=" << y << " s=" << s;
    }
  }
  EXPECT_EQ(dt.total_half_step_cells(), static_cast<std::int64_t>(ny) * 2 * nt);
}

TEST_P(DiamondGeometry, DependenciesStayWithinDeclaredEdges) {
  // Every stencil dependency (ỹ±1, s-1) of every cell must land in the same
  // tile or in one of the two declared predecessor tiles.  This is the
  // property that makes the two DAG edges sufficient for correctness.
  const auto [dw, ny, nt] = GetParam();
  DiamondTiling dt(dw, ny, nt);
  for (const TileCoord& t : dt.tiles()) {
    const auto deps = dt.deps(t);
    auto allowed = [&](TileCoord c) {
      if (c == t) return true;
      for (const auto& d : deps) {
        if (c == d) return true;
      }
      return false;
    };
    for (const RowSlice& sl : dt.slices(t)) {
      if (sl.s == 0) continue;  // reads initial state only
      for (int y = sl.y_lo; y < sl.y_hi; ++y) {
        const long yt = DiamondTiling::y_tilde(y, sl.h_phase);
        for (long dy : {-1L, +1L}) {
          const long nyt = yt + dy;
          // Stay within the staggered lattice of real rows.
          if (nyt < -1 || nyt > 2L * ny - 2) continue;
          const TileCoord src = dt.tile_of(nyt, sl.s - 1);
          EXPECT_TRUE(allowed(src))
              << "cell y=" << y << " s=" << sl.s << " reads (" << nyt << "," << sl.s - 1
              << ") in tile (" << src.a << "," << src.b << ") not in {self, deps} of ("
              << t.a << "," << t.b << ")";
        }
      }
    }
  }
}

TEST_P(DiamondGeometry, AntiDependenciesCoveredByTheSameEdges) {
  // Overwriting (ỹ, s) kills the version (ỹ, s-2) read by (ỹ±1, s-1): the
  // readers' tiles must be self or predecessors, never a concurrent tile.
  const auto [dw, ny, nt] = GetParam();
  DiamondTiling dt(dw, ny, nt);
  for (const TileCoord& t : dt.tiles()) {
    const auto deps = dt.deps(t);
    auto ordered_before_or_same = [&](TileCoord c) {
      if (c == t) return true;
      for (const auto& d : deps) {
        if (c == d) return true;
      }
      return false;
    };
    for (const RowSlice& sl : dt.slices(t)) {
      if (sl.s < 2) continue;
      for (int y = sl.y_lo; y < sl.y_hi; ++y) {
        const long yt = DiamondTiling::y_tilde(y, sl.h_phase);
        for (long dy : {-1L, +1L}) {
          const long ryt = yt + dy;
          if (ryt < -1 || ryt > 2L * ny - 2) continue;
          const TileCoord reader = dt.tile_of(ryt, sl.s - 1);
          EXPECT_TRUE(ordered_before_or_same(reader))
              << "overwrite at y=" << y << " s=" << sl.s
              << " races reader tile (" << reader.a << "," << reader.b << ")";
        }
      }
    }
  }
}

TEST_P(DiamondGeometry, TopologicalOrderAndWavefronts) {
  const auto [dw, ny, nt] = GetParam();
  DiamondTiling dt(dw, ny, nt);
  const auto& tiles = dt.tiles();
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    for (const TileCoord& d : dt.deps(tiles[i])) {
      const long di = dt.index_of(d);
      ASSERT_GE(di, 0);
      EXPECT_LT(di, static_cast<long>(i)) << "dep after dependent in tiles() order";
      // Both predecessors live on the previous wavefront.
      EXPECT_EQ(d.wavefront(), tiles[i].wavefront() - 1);
    }
  }
}

TEST_P(DiamondGeometry, SlicesAlternatePhasesAndRespectWidthBound) {
  const auto [dw, ny, nt] = GetParam();
  DiamondTiling dt(dw, ny, nt);
  for (const TileCoord& t : dt.tiles()) {
    const auto slices = dt.slices(t);
    ASSERT_FALSE(slices.empty());
    EXPECT_LE(static_cast<int>(slices.size()), 2 * dw - 1 + 1);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      EXPECT_EQ(slices[i].h_phase, slices[i].s % 2 == 0);
      EXPECT_LE(slices[i].width(), dw);
      EXPECT_GT(slices[i].width(), 0);
      if (i > 0) {
        EXPECT_EQ(slices[i].s, slices[i - 1].s + 1);  // contiguous in s
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, DiamondGeometry,
                         ::testing::Values(Case{1, 5, 3}, Case{2, 8, 4}, Case{2, 7, 3},
                                           Case{3, 10, 5}, Case{4, 16, 8},
                                           Case{4, 13, 2}, Case{5, 9, 6},
                                           Case{8, 32, 4}, Case{8, 6, 5}),
                         [](const auto& info) {
                           return "dw" + std::to_string(info.param.dw) + "_ny" +
                                  std::to_string(info.param.ny) + "_nt" +
                                  std::to_string(info.param.nt);
                         });

TEST(DiamondTiling, InteriorTileIsAFullDiamond) {
  DiamondTiling dt(4, 64, 16);
  bool found = false;
  for (const TileCoord& t : dt.tiles()) {
    const auto slices = dt.slices(t);
    if (static_cast<int>(slices.size()) != 2 * 4 - 1) continue;
    int peak = 0;
    for (const auto& sl : slices) peak = std::max(peak, sl.width());
    if (peak == 4 && slices.front().width() == 1 && slices.back().width() == 1) {
      found = true;
      // Widths ramp 1..dw..1 over 2*dw-1 half-steps.
      for (std::size_t i = 0; i < slices.size(); ++i) {
        const int expect = static_cast<int>(i < 4 ? i + 1 : 2 * 4 - 1 - i);
        EXPECT_EQ(slices[i].width(), expect);
      }
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiamondTiling, IndexOfRoundTripsAndRejectsForeignTiles) {
  DiamondTiling dt(2, 12, 4);
  const auto& tiles = dt.tiles();
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    EXPECT_EQ(dt.index_of(tiles[i]), static_cast<long>(i));
  }
  EXPECT_EQ(dt.index_of(TileCoord{1000, 1000}), -1);
}

TEST(DiamondTiling, DependentsInverseOfDeps) {
  DiamondTiling dt(3, 15, 5);
  for (const TileCoord& t : dt.tiles()) {
    for (const TileCoord& d : dt.deps(t)) {
      const auto fwd = dt.dependents(d);
      EXPECT_NE(std::find(fwd.begin(), fwd.end(), t), fwd.end());
    }
    for (const TileCoord& d : dt.dependents(t)) {
      const auto back = dt.deps(d);
      EXPECT_NE(std::find(back.begin(), back.end(), t), back.end());
    }
  }
}

TEST(DiamondTiling, RejectsBadArguments) {
  EXPECT_THROW(DiamondTiling(0, 8, 2), std::invalid_argument);
  EXPECT_THROW(DiamondTiling(2, 0, 2), std::invalid_argument);
  EXPECT_THROW(DiamondTiling(2, 8, 0), std::invalid_argument);
}

TEST(Wavefront, ZLagPattern) {
  // Ĥ of step n lags n planes, Ê of step n lags n+1 (paper Fig. 4 geometry).
  EXPECT_EQ(z_lag(0), 0);
  EXPECT_EQ(z_lag(1), 1);
  EXPECT_EQ(z_lag(2), 1);
  EXPECT_EQ(z_lag(3), 2);
  EXPECT_EQ(z_lag(4), 2);
  EXPECT_EQ(z_lag(5), 3);
}

TEST(Wavefront, WindowsPartitionZ) {
  const int nz = 23;
  for (int bz : {1, 2, 4, 5}) {
    for (int s_base = 0; s_base < 3; ++s_base) {
      const int s_top = s_base + 6;
      const int fronts = num_fronts(nz, bz, s_base, s_top);
      for (int s = s_base; s <= s_top; ++s) {
        std::vector<int> covered(nz, 0);
        for (int f = 0; f < fronts; ++f) {
          const ZWindow w = z_window(f * bz, bz, s, s_base, nz);
          for (int z = w.lo; z < w.hi; ++z) covered[static_cast<std::size_t>(z)]++;
        }
        for (int z = 0; z < nz; ++z) {
          EXPECT_EQ(covered[static_cast<std::size_t>(z)], 1)
              << "bz=" << bz << " s=" << s << " z=" << z;
        }
      }
    }
  }
}

TEST(Wavefront, WwFormulaMatchesPaper) {
  // Paper Fig. 4 and the Eq. 11 example of Sec. III-C: Dw = 4, BZ = 4 -> Ww = 7.
  EXPECT_EQ(wavefront_width(4, 4), 7);
  EXPECT_EQ(wavefront_width(4, 1), 4);
  EXPECT_EQ(wavefront_width(8, 6), 13);
}

TEST(TileDag, StructureMatchesTiling) {
  DiamondTiling dt(2, 10, 4);
  TileDag dag(dt);
  ASSERT_EQ(dag.num_tiles(), dt.tiles().size());
  EXPECT_FALSE(dag.initial_ready().empty());
  std::size_t total_edges = 0;
  for (std::size_t i = 0; i < dag.num_tiles(); ++i) {
    EXPECT_LE(dag.dep_count(i), 2);
    total_edges += dag.dependents(i).size();
    if (dag.dep_count(i) == 0) {
      const auto& init = dag.initial_ready();
      EXPECT_NE(std::find(init.begin(), init.end(), static_cast<std::int32_t>(i)),
                init.end());
    }
  }
  std::size_t total_deps = 0;
  for (std::size_t i = 0; i < dag.num_tiles(); ++i) {
    total_deps += static_cast<std::size_t>(dag.dep_count(i));
  }
  EXPECT_EQ(total_edges, total_deps);
}

TEST(TileQueue, SerialDrainRespectsDependencies) {
  DiamondTiling dt(2, 12, 5);
  TileDag dag(dt);
  TileQueue q(dag);
  std::vector<bool> done(dag.num_tiles(), false);
  std::size_t popped = 0;
  while (auto t = q.pop()) {
    const std::size_t i = static_cast<std::size_t>(*t);
    ASSERT_FALSE(done[i]) << "tile popped twice";
    for (const TileCoord& d : dt.deps(dt.tiles()[i])) {
      EXPECT_TRUE(done[static_cast<std::size_t>(dt.index_of(d))])
          << "popped before its dependency completed";
    }
    done[i] = true;
    ++popped;
    q.complete(*t);
  }
  EXPECT_EQ(popped, dag.num_tiles());
  EXPECT_EQ(q.completed(), dag.num_tiles());
}

TEST(TileQueue, ConcurrentDrainCompletesEachTileOnce) {
  DiamondTiling dt(2, 24, 8);
  TileDag dag(dt);
  TileQueue q(dag);
  std::vector<std::atomic<int>> claims(dag.num_tiles());
  for (auto& c : claims) c.store(0);
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      while (auto t = q.pop()) {
        claims[static_cast<std::size_t>(*t)].fetch_add(1);
        q.complete(*t);
      }
    });
  }
  for (auto& th : workers) th.join();
  for (auto& c : claims) EXPECT_EQ(c.load(), 1);
  EXPECT_EQ(q.completed(), dag.num_tiles());
  EXPECT_GE(q.max_ready_observed(), 1u);
}

TEST(TileQueue, ResetDrainsAgain) {
  DiamondTiling dt(2, 14, 5);
  TileDag dag(dt);
  TileQueue q(dag);
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t popped = 0;
    while (auto t = q.pop()) {
      ++popped;
      q.complete(*t);
    }
    EXPECT_EQ(popped, dag.num_tiles()) << "rep " << rep;
    EXPECT_EQ(q.completed(), dag.num_tiles()) << "rep " << rep;
    q.reset();
    EXPECT_EQ(q.completed(), 0u) << "rep " << rep;
  }
}

}  // namespace
