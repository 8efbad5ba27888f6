// Untiled engines: the paper's Sec. III-A naive and Sec. III-B "optimal
// spatial blocking" baselines, one engine walking exec::traverse_sweep.
//
// Twelve separate full-grid loop nests per time step (six Ĥ then six Ê),
// parallelized over z chunks.  One barrier separates the Ĥ phase from the
// Ê phase and another ends the step, because Ê reads Ĥ of the same step and
// Ĥ reads Ê of the previous one.
//
// Spatial blocking runs the four z-shift nests with y-blocking so that two
// successive x-y (block) layers of the two partner arrays stay resident in
// cache — the "layer condition" that removes the 4 extra doubles per LUP
// and brings the code balance from 1344 down to 1216 bytes/LUP.  Naive is
// the same engine with a block height of at least ny.  Without an explicit
// height, spatial picks one from a cache budget:
//   2 layers * block_y * nx * 16 B * 2 arrays  <=  budget per thread.

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "exec/engine.hpp"
#include "exec/thread_pool.hpp"
#include "exec/traversal.hpp"
#include "kernels/update.hpp"
#include "obs/trace.hpp"
#include "util/barrier.hpp"
#include "util/machine_detect.hpp"
#include "util/timer.hpp"

namespace emwd::exec {
namespace {

/// Layer-condition block height for a given row length and cache budget.
int auto_block_y(int nx, int ny, std::size_t cache_budget_bytes) {
  // Working set while sweeping k at fixed y-block: 2 layers of 2 partner
  // arrays plus the streaming row set; budget the partner layers at half.
  const std::size_t per_row = static_cast<std::size_t>(nx) * 16u * 2u /*arrays*/ * 2u /*layers*/;
  int by = static_cast<int>(std::max<std::size_t>(1, (cache_budget_bytes / 2) / per_row));
  return std::min(by, ny);
}

class SpatialEngine final : public Engine {
 public:
  SpatialEngine(std::string name, int threads, int block_y)
      : name_(std::move(name)), threads_(threads), block_y_(block_y) {}

  std::string name() const override { return name_; }
  int threads() const override { return threads_; }

  void run(grid::FieldSet& fs, int steps) override {
    OBS_SPAN("engine.run", steps);
    const grid::Layout& L = fs.layout();
    const int nx = L.nx(), ny = L.ny(), nz = L.nz();
    const int by = block_y_ > 0 ? block_y_
                                : auto_block_y(nx, ny,
                                               util::detect_host().l3_bytes /
                                                   static_cast<std::size_t>(threads_));

    util::SpinBarrier barrier(threads_);
    std::int64_t barrier_count = 0;

    util::Timer timer;
    ThreadTeam::run(threads_, [&](int tid) {
      const Chunk zc = split_range(nz, threads_, tid);
      for (int step = 0; step < steps; ++step) {
        for (bool h_phase : {true, false}) {
          traverse_sweep(h_phase, ny, zc.begin, zc.end, by,
                         [&](kernels::Comp comp, int y, int z) {
                           kernels::update_comp_row(fs, comp, 0, nx, y, z);
                         });
          barrier.arrive_and_wait();
          if (tid == 0) ++barrier_count;
        }
      }
    });

    stats_.seconds = timer.seconds();
    stats_.steps = steps;
    stats_.lups = static_cast<std::int64_t>(L.interior().cells()) * steps;
    stats_.mlups = util::mlups(static_cast<std::int64_t>(L.interior().cells()), steps,
                               stats_.seconds);
    stats_.barrier_episodes = barrier_count;
    stats_.tiles_executed = 0;
    stats_.kernel_isa = kernels::row_isa();
  }

 private:
  std::string name_;
  int threads_;
  int block_y_;
};

}  // namespace

std::unique_ptr<Engine> make_naive_engine(int threads) {
  return std::make_unique<SpatialEngine>("naive", threads, std::numeric_limits<int>::max());
}

std::unique_ptr<Engine> make_spatial_engine(int threads, int block_y) {
  return std::make_unique<SpatialEngine>("spatial", threads, block_y);
}

}  // namespace emwd::exec
