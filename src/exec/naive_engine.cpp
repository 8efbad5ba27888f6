// Naive engine: the paper's Sec. III-A baseline.
//
// Twelve separate full-grid loop nests per time step (six Ĥ then six Ê),
// parallelized over z chunks.  One barrier separates the Ĥ phase from the
// Ê phase and another ends the step, because Ê reads Ĥ of the same step and
// Ĥ reads Ê of the previous one.

#include <memory>

#include "exec/engine.hpp"
#include "exec/thread_pool.hpp"
#include "kernels/update.hpp"
#include "obs/trace.hpp"
#include "util/barrier.hpp"
#include "util/timer.hpp"

namespace emwd::exec {
namespace {

class NaiveEngine final : public Engine {
 public:
  explicit NaiveEngine(int threads) : threads_(threads) {}

  std::string name() const override { return "naive"; }
  int threads() const override { return threads_; }

  void run(grid::FieldSet& fs, int steps) override {
    OBS_SPAN("engine.run", steps);
    const grid::Layout& L = fs.layout();
    const int nx = L.nx(), ny = L.ny(), nz = L.nz();
    util::SpinBarrier barrier(threads_);
    std::int64_t barrier_count = 0;

    util::Timer timer;
    ThreadTeam::run(threads_, [&](int tid) {
      const Chunk zc = split_range(nz, threads_, tid);
      for (int step = 0; step < steps; ++step) {
        for (bool h_phase : {true, false}) {
          const auto& comps = h_phase ? kernels::kHComps : kernels::kEComps;
          for (kernels::Comp comp : comps) {
            for (int k = zc.begin; k < zc.end; ++k) {
              for (int j = 0; j < ny; ++j) {
                kernels::update_comp_row(fs, comp, 0, nx, j, k);
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

 private:
  int threads_;
};

}  // namespace

std::unique_ptr<Engine> make_naive_engine(int threads) {
  return std::make_unique<NaiveEngine>(threads);
}

}  // namespace emwd::exec
