// Spatially blocked engine: the paper's Sec. III-B "optimal spatial
// blocking" baseline.
//
// Identical twelve loop nests per step, but the four z-shift nests run with
// y-blocking so that two successive x-y (block) layers of the two partner
// arrays stay resident in cache — the "layer condition" that removes the 4
// extra doubles per LUP and brings the code balance from 1344 down to
// 1216 bytes/LUP.  The block height is chosen from a cache budget:
//   2 layers * block_y * nx * 16 B * 2 arrays  <=  budget per thread.

#include <algorithm>
#include <memory>

#include "exec/engine.hpp"
#include "exec/thread_pool.hpp"
#include "kernels/update.hpp"
#include "obs/trace.hpp"
#include "util/barrier.hpp"
#include "util/machine_detect.hpp"
#include "util/timer.hpp"

namespace emwd::exec {
namespace {

class SpatialEngine final : public Engine {
 public:
  SpatialEngine(int threads, int block_y) : threads_(threads), block_y_(block_y) {}

  std::string name() const override { return "spatial"; }
  int threads() const override { return threads_; }

  /// Layer-condition block height for a given row length and cache budget.
  static int auto_block_y(int nx, int ny, std::size_t cache_budget_bytes) {
    // Working set while sweeping k at fixed y-block: 2 layers of 2 partner
    // arrays plus the streaming row set; budget the partner layers at half.
    const std::size_t per_row = static_cast<std::size_t>(nx) * 16u * 2u /*arrays*/ * 2u /*layers*/;
    int by = static_cast<int>(std::max<std::size_t>(1, (cache_budget_bytes / 2) / per_row));
    return std::min(by, ny);
  }

  void run(grid::FieldSet& fs, int steps) override {
    OBS_SPAN("engine.run", steps);
    const grid::Layout& L = fs.layout();
    const int nx = L.nx(), ny = L.ny(), nz = L.nz();

    int by = block_y_;
    if (by <= 0) {
      const auto host = util::detect_host();
      by = auto_block_y(nx, ny, host.l3_bytes / static_cast<std::size_t>(threads_));
    }
    by = std::clamp(by, 1, ny);
    block_y_used_ = by;

    util::SpinBarrier barrier(threads_);
    std::int64_t barrier_count = 0;

    util::Timer timer;
    ThreadTeam::run(threads_, [&](int tid) {
      const Chunk zc = split_range(nz, threads_, tid);
      for (int step = 0; step < steps; ++step) {
        for (bool h_phase : {true, false}) {
          const auto& comps = h_phase ? kernels::kHComps : kernels::kEComps;
          for (kernels::Comp comp : comps) {
            const bool z_shift = kernels::info(comp).axis == kernels::Axis::Z;
            if (z_shift) {
              // Blocked: jb outermost so the (k-1) block layer is reused.
              for (int jb = 0; jb < ny; jb += by) {
                const int jend = std::min(ny, jb + by);
                for (int k = zc.begin; k < zc.end; ++k) {
                  for (int j = jb; j < jend; ++j) {
                    kernels::update_comp_row(fs, comp, 0, nx, j, k);
                  }
                }
              }
            } else {
              for (int k = zc.begin; k < zc.end; ++k) {
                for (int j = 0; j < ny; ++j) {
                  kernels::update_comp_row(fs, comp, 0, nx, j, k);
                }
              }
            }
          }
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

  int block_y_used() const { return block_y_used_; }

 private:
  int threads_;
  int block_y_;
  int block_y_used_ = 0;
};

}  // namespace

std::unique_ptr<Engine> make_spatial_engine(int threads, int block_y) {
  return std::make_unique<SpatialEngine>(threads, block_y);
}

}  // namespace emwd::exec
