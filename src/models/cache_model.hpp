// Cache block size model (paper Eq. 11).
//
//   Cs = 16 * Nx * [ 40 * (Dw^2/2 + Dw*(BZ-1)) + 12 * (Dw + Ww) ],
//   Ww = Dw + BZ - 1 (tiling::wavefront_width).
//
// Every point of the diamond-wavefront tile extends over the full x
// dimension (16 bytes per double-complex cell); the paper's 40 arrays
// (models::kPaperArrays) cover the wavefront-tile area, and the 12 field
// components add a one-column halo ring of extent Dw + Ww.  The engines'
// FieldSet keeps only the 12 field arrays plus a byte of coefficient class
// per cell (models::kEngineArrays), so a tile's real footprint is about a
// third of the paper's Cs; the tuner's calibrated host model passes that
// count.  The auto-tuner prunes its parameter space to tiles whose Cs fits
// the usable share of the last-level cache (the paper's rule of thumb:
// half the L3).
#pragma once

#include <cstdint>

#include "models/code_balance.hpp"

namespace emwd::models {

/// Eq. 11 cache block size in bytes for one tile whose area streams
/// `arrays` complex arrays.
double cache_block_bytes(int dw, int bz, int nx, double arrays = kPaperArrays);

/// Usable LLC share per the paper's rule of thumb (half the cache).
constexpr double usable_cache_fraction() { return 0.5; }

/// True when `num_tgs` concurrent tiles of this size fit the usable LLC.
bool fits_cache(int dw, int bz, int nx, std::uint64_t llc_bytes, int num_tgs);

/// Largest diamond width whose tile fits; 0 when even dw=1 does not.
int max_dw_fitting(int bz, int nx, std::uint64_t llc_bytes, int num_tgs, int dw_limit = 64);

}  // namespace emwd::models
