// Bottleneck performance model (paper Sec. III-B, Eq. 10, after Hockney).
//
//   P(t) = min( t * Pcore * eff(t),  bS / B_C )
//
// The paper validates exactly this model: the spatially blocked code is
// predicted at Pmem = 50 GB/s / 1216 B/LUP = 41 MLUP/s and measured at ~40;
// MWD decouples from the bandwidth term and scales with t at ~75 %
// efficiency.  The model needs the code balance B_C (from models/
// code_balance or measured by the cache simulator) and a Machine.
#pragma once

#include "models/code_balance.hpp"
#include "models/machine.hpp"

namespace emwd::models {

struct PerfPrediction {
  double mlups = 0.0;
  double mem_bandwidth_bytes_per_s = 0.0;  // implied DRAM bandwidth draw
  bool bandwidth_bound = false;
};

/// Parallel efficiency of a t-thread tiled run: 1 / (1 + drag*(t-1)).
double parallel_efficiency(int threads, double sync_drag);

/// Predict performance of a code variant with code balance
/// `bytes_per_lup` on `threads` cores of machine `m`.
PerfPrediction predict(const Machine& m, int threads, double bytes_per_lup,
                       bool tiled = false);

/// Effective code balance for 1WD/MWD when the per-group tile does NOT fit
/// the usable cache: traffic degrades toward the spatial-blocking balance as
/// the overflow factor grows (capacity misses).  `overflow` = required
/// bytes / usable bytes.
double degraded_bytes_per_lup(double ideal_bpl, double overflow);

}  // namespace emwd::models
