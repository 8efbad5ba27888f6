#include "models/perf_model.hpp"

#include <algorithm>
#include <cmath>

namespace emwd::models {

double parallel_efficiency(int threads, double sync_drag) {
  if (threads <= 1) return 1.0;
  return 1.0 / (1.0 + sync_drag * (threads - 1));
}

PerfPrediction predict(const Machine& m, int threads, double bytes_per_lup, bool tiled) {
  PerfPrediction out;
  const double eff = tiled ? parallel_efficiency(threads, m.sync_drag) : 1.0;
  const double p_core = threads * m.pcore_mlups * eff;
  const double p_mem = pmem_mlups(m.bandwidth_bytes_per_s, bytes_per_lup);
  out.bandwidth_bound = p_mem < p_core;
  out.mlups = std::min(p_core, p_mem);
  out.mem_bandwidth_bytes_per_s = out.mlups * 1e6 * bytes_per_lup;
  return out;
}

double degraded_bytes_per_lup(double ideal_bpl, double overflow) {
  if (overflow <= 1.0) return ideal_bpl;
  // Past the usable cache size, in-tile reuse is progressively lost; blend
  // toward the spatial-blocking balance with the overflow fraction.  The
  // exact shape is measured by the cache simulator; this closed form only
  // guides the auto-tuner's pruning.
  const double lost = std::min(1.0, (overflow - 1.0));
  return ideal_bpl + lost * (spatial_bytes_per_lup() - ideal_bpl);
}

}  // namespace emwd::models
