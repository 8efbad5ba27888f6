// Wavefront-only temporal blocking (paper ref. [21], Wellein et al.):
// implemented as the degenerate diamond that spans the whole y extent, so
// the z-wavefront is the only tiling dimension.  Time is processed in
// blocks of `max_steps_per_block` steps — the temporal depth of the
// wavefront, which plays the role Dw plays for diamonds in the cache
// block size tradeoff.

#include <algorithm>
#include <memory>

#include "exec/engine.hpp"

namespace emwd::exec {
namespace {

class WavefrontEngine final : public Engine {
 public:
  WavefrontEngine(const WavefrontParams& p, const grid::Extents& grid, int steps_per_block)
      : p_(p), steps_per_block_(std::max(1, steps_per_block)) {
    MwdParams mp;
    mp.dw = std::max(1, grid.ny);  // one diamond column: no y tiling
    mp.bz = p.bz;
    mp.tx = p.tx;
    mp.tz = p.tz;
    mp.tc = p.tc;
    mp.num_tgs = 1;  // a single group: wavefront parallelism only
    inner_ = make_mwd_engine(mp);
    name_ = "wavefront{bz=" + std::to_string(p.bz) + ",tg=" + std::to_string(p.tx) +
            "x" + std::to_string(p.tz) + "x" + std::to_string(p.tc) + ",T=" +
            std::to_string(steps_per_block_) + "}";
  }

  std::string name() const override { return name_; }
  int threads() const override { return inner_->threads(); }

  void run(grid::FieldSet& fs, int steps) override {
    stats_ = EngineStats{};
    run_segmented(*inner_, fs, steps, steps_per_block_, [](int) { return true; }, stats_);
  }

 private:
  WavefrontParams p_;
  int steps_per_block_;
  std::unique_ptr<Engine> inner_;
  std::string name_;
};

}  // namespace

std::unique_ptr<Engine> make_wavefront_engine(const WavefrontParams& params,
                                              const grid::Extents& grid,
                                              int max_steps_per_block) {
  return std::make_unique<WavefrontEngine>(params, grid, max_steps_per_block);
}

}  // namespace emwd::exec
