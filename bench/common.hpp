// Shared helpers for the figure-reproduction benches.
//
// Scaling scheme: the paper runs up to 512^3 cells (86 GB of state)
// against a 45 MiB LLC.  Eq. 11 is linear in Nx, so shrinking the grid AND
// the simulated LLC by the same factor preserves every fits/overflows
// relationship the experiments probe.  The benches run at 1/SCALE linear
// size with the LLC scaled identically, and evaluate the bottleneck
// performance model with the paper's bandwidth/core parameters.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "cachesim/replay.hpp"
#include "exec/engine.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "grid/layout.hpp"
#include "models/cache_model.hpp"
#include "models/code_balance.hpp"
#include "models/machine.hpp"
#include "models/perf_model.hpp"
#include "tune/autotuner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/engine_cli.hpp"

namespace emwd::bench {

// The unified --engine flag helpers live in util/engine_cli.hpp (examples
// use them without including bench/); re-exported here so the figure
// benches keep addressing them as emwd::bench::.
using util::add_engine_flag;
using util::consume_engine_flag;
using util::engine_spec_from_cli;

/// Linear down-scaling factor relative to the paper's setup.
inline constexpr int kScale = 8;

/// The paper's machine with the LLC shrunk by kScale (grids are too).
inline models::Machine scaled_haswell() {
  models::Machine m = models::haswell18();
  m.llc_bytes = m.llc_bytes / kScale;
  m.name = "haswell18/" + std::to_string(kScale);
  return m;
}

/// Replay an MWD configuration at scaled size; returns measured bytes/LUP.
inline double measured_mwd_bpl(const grid::Extents& scaled_grid,
                               const exec::MwdParams& params, std::uint64_t llc_bytes,
                               int steps = 8) {
  grid::Layout L(scaled_grid);
  cachesim::Hierarchy h = cachesim::Hierarchy::llc_only(llc_bytes);
  return cachesim::replay_mwd(L, steps, params, h).bytes_per_lup();
}

inline double measured_spatial_bpl(const grid::Extents& scaled_grid, int block_y,
                                   std::uint64_t llc_bytes, int steps = 4) {
  grid::Layout L(scaled_grid);
  cachesim::Hierarchy h = cachesim::Hierarchy::llc_only(llc_bytes);
  return cachesim::replay_spatial(L, steps, block_y, h).bytes_per_lup();
}

inline double measured_naive_bpl(const grid::Extents& scaled_grid,
                                 std::uint64_t llc_bytes, int steps = 4) {
  grid::Layout L(scaled_grid);
  cachesim::Hierarchy h = cachesim::Hierarchy::llc_only(llc_bytes);
  return cachesim::replay_spatial(L, steps, L.ny(), h).bytes_per_lup();
}

/// Best MWD candidate under a thread-group-size restriction (tg_size == g),
/// or unrestricted when g == 0.  Stage-1 (model) tuning only.
inline tune::Candidate best_candidate_restricted(int threads, int tg_size,
                                                 const grid::Extents& grid,
                                                 const models::Machine& m) {
  const auto cands = tune::enumerate_candidates(threads, grid);
  tune::Candidate best;
  bool first = true;
  for (const auto& p : cands) {
    if (tg_size > 0 && p.tg_size() != tg_size) continue;
    const tune::Candidate c = tune::score_candidate(p, grid, m);
    if (first || tune::candidate_better(c, best)) {
      best = c;
      first = false;
    }
  }
  if (first) {
    // No candidate with that exact group size; fall back to 1WD.
    exec::MwdParams p;
    p.num_tgs = threads;
    best = tune::score_candidate(p, grid, m);
  }
  return best;
}

/// Print a standard bench banner.
inline void banner(const std::string& name, const std::string& what) {
  std::printf("=============================================================\n");
  std::printf("%s\n  reproduces: %s\n", name.c_str(), what.c_str());
  std::printf("  scale: 1/%d linear (grid and simulated LLC shrunk together)\n", kScale);
  std::printf("=============================================================\n\n");
}

}  // namespace emwd::bench
