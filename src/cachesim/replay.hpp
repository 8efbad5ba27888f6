// Traffic replay: drive the cache simulator with the exact memory access
// stream of each engine (same traversal code as the real engines), yielding
// the "measured" memory transfer volumes and code balance the paper obtains
// from LIKWID hardware counters (Figs. 5, 6c/d, 7c/d, 8c/d).  The replayed
// stream is the paper's: every cell touches dense t and c arrays and the
// z-shift components a dense source array, so the figures reproduce the
// paper's 40-array counting, not the compact grid::FieldSet the engines
// stream.
#pragma once

#include <cstdint>

#include "cachesim/hierarchy.hpp"
#include "exec/engine.hpp"
#include "grid/layout.hpp"

namespace emwd::cachesim {

struct TrafficResult {
  std::int64_t lups = 0;             // full lattice-site updates replayed
  std::uint64_t read_bytes = 0;      // DRAM -> cache
  std::uint64_t write_bytes = 0;     // cache -> DRAM
  std::uint64_t total_bytes() const { return read_bytes + write_bytes; }
  /// The paper's "MEM bytes/LUP" metric.
  double bytes_per_lup() const {
    return lups ? static_cast<double>(total_bytes()) / static_cast<double>(lups) : 0.0;
  }
};

/// Emit the access stream of one run of component row updates (x cells
/// [x0, x1) of rows [y0, y1) at plane k, row by row): per row, reads of the
/// component, its t/c coefficients, optional source, and the two partner
/// arrays at base and shifted index; write of the component.  Exposed for
/// unit tests.
void touch_comp_rows(Hierarchy& h, const grid::Layout& L, kernels::Comp comp, int x0,
                     int x1, int y0, int y1, int k);

/// Untiled engine stream (exec::traverse_sweep): 12 separate full-grid nests
/// per step, the z-shift ones y-blocked by `block_y` rows.  block_y >= L.ny()
/// is the naive engine's stream.
TrafficResult replay_spatial(const grid::Layout& L, int steps, int block_y, Hierarchy& h);

/// MWD stream: diamond tiles scheduled wave-by-wave, with the streams of
/// `params.num_tgs` concurrently-running tiles interleaved quantum-wise
/// (one wavefront-position half-step at a time), approximating the cache
/// mixing of truly concurrent thread groups.
TrafficResult replay_mwd(const grid::Layout& L, int steps, const exec::MwdParams& params,
                         Hierarchy& h);

/// Two-level replay: each virtual thread group owns a private cache (its
/// L2) in front of one shared LLC.  Measures both the DRAM traffic and the
/// private->LLC traffic, quantifying how much of a tile's reuse the FED
/// assignment keeps inside the private caches.
struct PrivateSharedResult {
  std::int64_t lups = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  std::uint64_t private_to_llc_bytes = 0;
  double dram_bytes_per_lup() const {
    return lups ? static_cast<double>(dram_read_bytes + dram_write_bytes) /
                      static_cast<double>(lups)
                : 0.0;
  }
  double llc_bytes_per_lup() const {
    return lups ? static_cast<double>(private_to_llc_bytes) / static_cast<double>(lups)
                : 0.0;
  }
};

PrivateSharedResult replay_mwd_private(const grid::Layout& L, int steps,
                                       const exec::MwdParams& params,
                                       std::uint64_t private_bytes,
                                       std::uint64_t llc_bytes);

/// Replay one full (unclipped) interior diamond tile.  With an effectively
/// infinite cache this measures the tile's compulsory traffic (the exact
/// code-balance lower bound) and its total working set.
TrafficResult replay_single_tile(const grid::Layout& L, int dw, int bz, Hierarchy& h);

/// Distinct bytes touched by one full interior tile (exact cache block size,
/// the quantity paper Eq. 11 models).
std::uint64_t tile_working_set_bytes(const grid::Layout& L, int dw, int bz);

/// Reuse-distance profile of one full interior tile's access stream — the
/// empirical miss-ratio-vs-capacity curve whose knee Eq. 11 predicts.
class ReuseProfile;  // cachesim/reuse.hpp
ReuseProfile tile_reuse_profile(const grid::Layout& L, int dw, int bz);

}  // namespace emwd::cachesim
