#include "thiim/simulation.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "exec/engine_registry.hpp"
#include "fault/inject.hpp"
#include "util/machine_detect.hpp"

namespace emwd::thiim {

exec::EngineSpec SimulationConfig::spec() const {
  return engine_spec.empty() ? exec::EngineSpec{"auto", {}}
                             : exec::parse_engine_spec(engine_spec);
}

Simulation::Simulation(const SimulationConfig& cfg)
    : Simulation(cfg, BorrowedState{}) {}

Simulation::Simulation(const SimulationConfig& cfg, const BorrowedState& borrowed)
    : cfg_(cfg),
      layout_(cfg.grid),
      materials_(layout_),
      params_(em::make_params(cfg.wavelength_cells, cfg.cfl)) {
  if (borrowed.fields) {
    if (!(borrowed.fields->layout().interior() == cfg.grid)) {
      throw std::invalid_argument(
          "Simulation: borrowed FieldSet extents do not match cfg.grid");
    }
    fields_ = borrowed.fields;
    // Recycled storage must be indistinguishable from a fresh allocation:
    // zero every array (stale coefficients, sources and halos included).
    fields_->clear_all();
  } else {
    owned_fields_ = std::make_unique<grid::FieldSet>(layout_);
    fields_ = owned_fields_.get();
  }
  fields_->set_x_boundary(cfg.x_boundary);

  if (borrowed.engine) {
    engine_ = borrowed.engine;
  } else {
    const exec::EngineSpec spec = cfg.spec();
    exec::BuildContext ctx;
    ctx.grid = cfg.grid;
    ctx.threads = cfg.threads > 0 ? cfg.threads : util::detect_host().logical_cpus;
    owned_engine_ = exec::EngineRegistry::global().build(spec, ctx);
    engine_ = owned_engine_.get();
  }
}

void Simulation::finalize() {
  pml_ = em::PmlProfiles(layout_, cfg_.pml, params_.h);
  em::build_coefficients(*fields_, materials_, pml_, params_);
  fields_->clear_fields();
  finalized_ = true;
  steps_done_ = 0;
}

void Simulation::add_plane_wave(em::SourceField which, int k0,
                                std::complex<double> amplitude) {
  if (!finalized_) throw std::logic_error("Simulation: finalize() before adding sources");
  em::add_plane_wave(*fields_, materials_, pml_, params_, which, k0, amplitude);
}

void Simulation::add_point_dipole(em::SourceField which, int i, int j, int k,
                                  std::complex<double> amplitude) {
  if (!finalized_) throw std::logic_error("Simulation: finalize() before adding sources");
  em::add_point_dipole(*fields_, materials_, pml_, params_, which, i, j, k, amplitude);
}

bool Simulation::at_boundary(int steps_done) {
  steps_done_ = steps_done;
  // A boundary is where a running call can stop cleanly, so it is also
  // where an injected step failure surfaces (the caller rolls steps_done_
  // back, exactly like a real engine fault).
  fault::maybe_fail("engine.step");
  return !step_hook_ || step_hook_(steps_done_);
}

int Simulation::advance(int steps) {
  const int base = steps_done_;
  const int advanced = exec::run_segmented(
      *engine_, *fields_, steps, step_hook_every_,
      [this, base](int done) { return at_boundary(base + done); }, stats_);
  steps_done_ = base + advanced;
  return advanced;
}

int Simulation::run(int steps) {
  if (!finalized_) throw std::logic_error("Simulation: finalize() before run()");
  fault::maybe_fail("engine.step");
  stats_ = {};
  const int base = steps_done_;
  try {
    return advance(steps);
  } catch (...) {
    steps_done_ = base;
    throw;
  }
}

void Simulation::set_step_hook(int every, std::function<bool(int)> fn) {
  step_hook_every_ = fn && every > 0 ? every : 0;
  step_hook_ = step_hook_every_ > 0 ? std::move(fn) : nullptr;
}

double Simulation::run_until_converged(double tol, int max_steps, int check_every) {
  if (!finalized_) throw std::logic_error("Simulation: finalize() before run()");
  if (check_every < 1) {
    throw std::invalid_argument("Simulation: check_every must be >= 1");
  }
  fault::maybe_fail("engine.step");
  stats_ = {};
  const int base = steps_done_;
  grid::FieldSet snapshot(layout_);
  double change = 1.0;
  int done = 0;
  try {
    while (done < max_steps) {
      snapshot.copy_fields_from(*fields_);
      const int chunk = std::min(check_every, max_steps - done);
      const int advanced = advance(chunk);
      done += advanced;
      change = em::relative_change(*fields_, snapshot);
      // Converged, hook-stopped or out of steps: the call ends here, and its
      // end is no boundary.  A check that continues the run is one.
      if (change < tol || advanced < chunk || done == max_steps ||
          !at_boundary(steps_done_)) {
        break;
      }
    }
  } catch (...) {
    steps_done_ = base;
    throw;
  }
  return change;
}

io::SnapshotInfo Simulation::snapshot_info() const {
  io::SnapshotInfo info;
  info.extents = cfg_.grid;
  info.steps_done = steps_done_;
  info.x_boundary = cfg_.x_boundary;
  info.meta = cfg_.engine_spec;
  return info;
}

void Simulation::save_snapshot(std::ostream& os) const {
  io::write_snapshot(os, *fields_, snapshot_info());
}

void Simulation::save_snapshot_file(const std::string& path) const {
  io::write_snapshot_file(path, *fields_, snapshot_info());
}

io::SnapshotInfo Simulation::restore_snapshot(std::istream& is) {
  if (!finalized_) {
    throw std::logic_error("Simulation: finalize() before restore_snapshot()");
  }
  const io::SnapshotInfo info = io::read_snapshot(is, *fields_);
  if (info.x_boundary != cfg_.x_boundary) {
    throw std::runtime_error("snapshot: x_boundary mismatch with configuration");
  }
  steps_done_ = info.steps_done;
  return info;
}

io::SnapshotInfo Simulation::restore_snapshot_file(const std::string& path) {
  if (!finalized_) {
    throw std::logic_error("Simulation: finalize() before restore_snapshot()");
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("snapshot: cannot open " + path);
  }
  return restore_snapshot(is);
}

}  // namespace emwd::thiim
