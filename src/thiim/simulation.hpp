// Public facade: a complete THIIM solar-cell / photonics simulation.
//
// Typical use (see examples/):
//
//   thiim::SimulationConfig cfg;
//   cfg.grid = {64, 64, 128};
//   cfg.wavelength_cells = 24;
//   thiim::Simulation sim(cfg);
//   auto ag = sim.materials().add(em::silver());
//   em::GeometryBuilder(sim.materials()).layer(ag, 0, 12);
//   sim.finalize();
//   sim.add_plane_wave(em::SourceField::Ex, cfg.grid.nz - 12, 1.0);
//   sim.run(200);
//   double e = sim.total_energy();
#pragma once

#include <complex>
#include <memory>
#include <vector>

#include "em/coefficients.hpp"
#include "em/geometry.hpp"
#include "em/material.hpp"
#include "em/observables.hpp"
#include "em/pml.hpp"
#include "em/source.hpp"
#include "exec/engine.hpp"
#include "exec/engine_spec.hpp"
#include "grid/fieldset.hpp"
#include "io/snapshot.hpp"

namespace emwd::thiim {

struct SimulationConfig {
  grid::Extents grid{64, 64, 64};
  double wavelength_cells = 24.0;  // incident wavelength in mesh cells
  double cfl = 0.5;                // pseudo-time step CFL factor
  em::PmlSpec pml{};               // default: absorbing in z, as in the paper
  /// Lateral boundary along x: periodic matches the paper's production
  /// setup ("horizontally periodic boundary conditions", Sec. I-A).
  grid::XBoundary x_boundary = grid::XBoundary::Dirichlet;

  /// Engine selection: a spec string from the canonical grammar (see
  /// src/exec/README.md), e.g. "naive", "mwd(dw=8,bz=2,tc=3)",
  /// "sharded(shards=4,interval=2,overlap,inner=auto)".  Empty means
  /// "auto"; the engine is built through exec::EngineRegistry::global().
  std::string engine_spec;

  int threads = 0;                 // 0: hardware concurrency

  /// The parsed engine spec, with an empty `engine_spec` read as "auto".
  /// Throws std::invalid_argument for a malformed string.
  exec::EngineSpec spec() const;
};

/// Pooled resources a Simulation may borrow instead of allocating and
/// building its own — the seam the batch subsystem's EnginePool uses so
/// successive jobs on the same grid shape skip the FieldSet allocation and
/// engine (re-)construction.  Both pointers are optional and non-owning;
/// they must outlive the Simulation.
///   engine: used as-is (cfg's engine selection is ignored).  The caller
///           guarantees it was built for cfg.grid; engines keep per-shape
///           prepared state (MWD tiling cache, the sharded engine's shard
///           FieldSets), which is exactly what pooling amortizes.
///   fields: layout interior must equal cfg.grid (else std::invalid_argument).
///           The set is clear_all()-ed on borrow (fields zeroed, one empty
///           coefficient class, source planes released), so results and
///           footprint match a freshly constructed Simulation.
struct BorrowedState {
  exec::Engine* engine = nullptr;
  grid::FieldSet* fields = nullptr;
};

class Simulation {
 public:
  explicit Simulation(const SimulationConfig& cfg);
  Simulation(const SimulationConfig& cfg, const BorrowedState& borrowed);

  /// Material map; paint geometry before finalize().
  em::MaterialGrid& materials() { return materials_; }
  const em::MaterialGrid& materials() const { return materials_; }

  /// Build coefficients from materials + PML; must be called before sources
  /// or run().  Re-callable after material changes (sources are reset).
  void finalize();

  void add_plane_wave(em::SourceField which, int k0, std::complex<double> amplitude);
  void add_point_dipole(em::SourceField which, int i, int j, int k,
                        std::complex<double> amplitude);

  /// Advance up to `steps` THIIM iterations; returns the number actually
  /// advanced.  That is `steps` unless an installed step hook stopped the
  /// run early (the scheduler's preemption path).  On a throw steps_done()
  /// is rolled back to its value before the call.
  int run(int steps);

  /// Install a safe-boundary hook.  fn(total steps done since finalize())
  /// fires inside run() and run_until_converged(): every `every` steps of
  /// the call (counted from its last convergence check in the latter), and
  /// at each convergence check that continues the run, but never at the end
  /// of the call.  steps_done() is already updated when it runs, so fn may
  /// snapshot the fields.  Return false from fn to stop the run early.  Pass
  /// every <= 0 or a null fn to uninstall.
  void set_step_hook(int every, std::function<bool(int)> fn);

  /// Snapshot metadata for the current state (extents, steps_done,
  /// x boundary; meta carries the engine spec string).
  io::SnapshotInfo snapshot_info() const;

  /// Serialize the field state (snapshot format v2, see src/io/README.md).
  void save_snapshot(std::ostream& os) const;
  void save_snapshot_file(const std::string& path) const;

  /// Restore fields + step counter from a snapshot.  Requires finalize()
  /// first (coefficients are rebuilt from geometry, only fields travel);
  /// throws std::runtime_error when the stored extents or x boundary do not
  /// match this simulation's configuration.  After restore, continuing with
  /// run() is bit-exact with a run that was never interrupted.
  io::SnapshotInfo restore_snapshot(std::istream& is);
  io::SnapshotInfo restore_snapshot_file(const std::string& path);

  /// Iterate until the relative field change per `check_every` steps drops
  /// below `tol` (or `max_steps`, or the step hook stops the run).  Returns
  /// the last relative change; like run(), rolls steps_done() back on a
  /// throw.  Throws std::invalid_argument when check_every < 1.
  double run_until_converged(double tol, int max_steps, int check_every = 10);

  double total_energy() const { return em::total_energy(*fields_); }
  double electric_energy() const { return em::electric_energy(*fields_); }
  std::vector<double> absorption_by_material() const {
    return em::absorption_by_material(*fields_, materials_, params_.omega);
  }
  std::complex<double> E_at(int axis, int i, int j, int k) const {
    return em::parent_E(*fields_, axis, i, j, k);
  }
  std::complex<double> H_at(int axis, int i, int j, int k) const {
    return em::parent_H(*fields_, axis, i, j, k);
  }

  grid::FieldSet& fields() { return *fields_; }
  const grid::FieldSet& fields() const { return *fields_; }
  const em::ThiimParams& params() const { return params_; }
  const exec::Engine& engine() const { return *engine_; }
  /// Merged engine stats of the last run() or run_until_converged() call.
  const exec::EngineStats& last_stats() const { return stats_; }
  int steps_done() const { return steps_done_; }

 private:
  /// Advance through exec::run_segmented, cut at the hook cadence.
  int advance(int steps);
  /// A step boundary inside a call: the hook and the `engine.step` fault.
  bool at_boundary(int steps_done);

  SimulationConfig cfg_;
  grid::Layout layout_;
  // Owned storage backs the pointers unless the BorrowedState ctor supplied
  // pooled instances; all code paths go through the pointers.
  std::unique_ptr<grid::FieldSet> owned_fields_;
  grid::FieldSet* fields_ = nullptr;
  em::MaterialGrid materials_;
  em::PmlProfiles pml_;
  em::ThiimParams params_;
  std::unique_ptr<exec::Engine> owned_engine_;
  exec::Engine* engine_ = nullptr;
  bool finalized_ = false;
  int steps_done_ = 0;
  exec::EngineStats stats_;
  std::function<bool(int)> step_hook_;
  int step_hook_every_ = 0;
};

}  // namespace emwd::thiim
