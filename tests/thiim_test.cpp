// Facade tests: the public Simulation API.
#include <gtest/gtest.h>

#include "kernels/update.hpp"
#include "thiim/simulation.hpp"

namespace {

using namespace emwd;
using thiim::Simulation;
using thiim::SimulationConfig;

SimulationConfig small_cfg(const std::string& spec) {
  SimulationConfig cfg;
  cfg.grid = {12, 12, 20};
  cfg.wavelength_cells = 10.0;
  cfg.pml.thickness = 4;
  cfg.engine_spec = spec;
  cfg.threads = 2;
  return cfg;
}

TEST(Simulation, LifecycleEnforced) {
  Simulation sim(small_cfg("naive"));
  EXPECT_THROW(sim.run(1), std::logic_error);
  EXPECT_THROW(sim.add_plane_wave(em::SourceField::Ex, 5, {1.0, 0.0}), std::logic_error);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, 15, {1.0, 0.0});
  sim.run(3);
  EXPECT_EQ(sim.steps_done(), 3);
  sim.run(2);
  EXPECT_EQ(sim.steps_done(), 5);
}

TEST(Simulation, SourceDrivesEnergy) {
  Simulation sim(small_cfg("naive"));
  sim.finalize();
  EXPECT_DOUBLE_EQ(sim.total_energy(), 0.0);
  sim.add_plane_wave(em::SourceField::Ex, 15, {1.0, 0.0});
  sim.run(10);
  EXPECT_GT(sim.total_energy(), 0.0);
  EXPECT_GT(sim.electric_energy(), 0.0);
}

TEST(Simulation, AllEngineSpecsAgree) {
  // Same physical setup run through naive / spatial / MWD / auto must give
  // identical fields (the equivalence suite in miniature, via the facade).
  // The empty spec is "auto".
  std::vector<double> energies;
  for (const char* spec : {"naive", "spatial", "mwd", "auto", ""}) {
    Simulation sim(small_cfg(spec));
    const auto ag = sim.materials().add(em::silver());
    em::GeometryBuilder(sim.materials()).layer(ag, 0, 3);
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(8);
    energies.push_back(sim.total_energy());
  }
  for (std::size_t i = 1; i < energies.size(); ++i) {
    EXPECT_DOUBLE_EQ(energies[i], energies[0]);
  }
}

TEST(Simulation, ShardedAutoTunedEnginesAgreeWithNaive) {
  // The sharded tuner's plans (Model and Measured modes, searched or pinned
  // axes, explicit per-shard params) must all reproduce the undecomposed
  // fields bit-for-bit through the facade.
  auto reference_energy = [] {
    Simulation sim(small_cfg("naive"));
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(6);
    return sim.total_energy();
  }();

  const char* const specs[] = {
      "sharded(inner=auto)",                          // searched axes
      "sharded(shards=2,interval=2,inner=auto)",      // pinned axes
      "sharded(inner=auto,tune=measured)",            // measured plans
      "sharded(shards=2,inner0=mwd(dw=2,groups=1),"   // explicit per-shard MWD
      "inner1=mwd(dw=2,groups=1))",
      "sharded(shards=2,overlap,inner=naive)",        // legacy key, fixed inner
      "sharded(shards=2,overlap,inner=auto)",         // legacy key, tuned inner
  };
  for (const char* spec : specs) {
    Simulation sim(small_cfg(spec));
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(6);
    EXPECT_DOUBLE_EQ(sim.total_energy(), reference_energy) << spec;
  }
}

TEST(Simulation, EngineSpecStringSelectsTheEngine) {
  Simulation sim(small_cfg("mwd(dw=2,bz=2,tc=2,groups=1)"));
  sim.finalize();
  sim.run(2);
  EXPECT_NE(sim.engine().name().find("dw=2"), std::string::npos);
  EXPECT_EQ(sim.engine().threads(), 2);
  EXPECT_STREQ(sim.last_stats().kernel_isa, kernels::row_isa());

  auto bad = small_cfg("mwd(dw=");  // malformed: throws, never crashes
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
  bad.engine_spec = "warp-drive";  // unknown kind
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
  bad.engine_spec = "sharded(inner=sharded)";  // shards do not nest
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
  bad.engine_spec = "sharded(shards=2,inner0=sharded(shards=2),inner1=naive)";
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
  bad.engine_spec = "sharded(shards=2,inner0=auto,inner1=naive)";  // auto tunes all
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
}

TEST(Simulation, ConvergenceLoopTerminates) {
  Simulation sim(small_cfg("naive"));
  sim.finalize();
  sim.add_point_dipole(em::SourceField::Ex, 6, 6, 10, {1.0, 0.0});
  const double change = sim.run_until_converged(/*tol=*/1e-30, /*max_steps=*/20,
                                                /*check_every=*/5);
  EXPECT_EQ(sim.steps_done(), 20);  // tol unreachable -> runs to max_steps
  EXPECT_EQ(sim.last_stats().steps, 20);  // the stats cover the whole call
  EXPECT_GT(change, 0.0);
  // A zero-source run converges instantly.
  Simulation quiet(small_cfg("naive"));
  quiet.finalize();
  EXPECT_DOUBLE_EQ(quiet.run_until_converged(1e-12, 10, 2), 0.0);
  EXPECT_EQ(quiet.steps_done(), 2);
  // A check interval below one step would "converge" without stepping.
  EXPECT_THROW(quiet.run_until_converged(1e-12, 10, 0), std::invalid_argument);
  EXPECT_EQ(quiet.steps_done(), 2);
}

TEST(Simulation, FieldAccessorsMatchFieldSet) {
  Simulation sim(small_cfg("naive"));
  sim.finalize();
  sim.fields().field(kernels::Comp::Exy).set(3, 4, 5, {1.5, 0.0});
  sim.fields().field(kernels::Comp::Exz).set(3, 4, 5, {0.5, 0.0});
  EXPECT_EQ(sim.E_at(0, 3, 4, 5), std::complex<double>(2.0, 0.0));
  sim.fields().field(kernels::Comp::Hzx).set(1, 1, 1, {0.0, 1.0});
  EXPECT_EQ(sim.H_at(2, 1, 1, 1), std::complex<double>(0.0, 1.0));
}

TEST(Simulation, AbsorptionReportCoversPalette) {
  Simulation sim(small_cfg("naive"));
  const auto asi = sim.materials().add(em::amorphous_silicon());
  em::GeometryBuilder(sim.materials()).layer(asi, 5, 10);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, 15, {1.0, 0.0});
  sim.run(30);
  const auto abs = sim.absorption_by_material();
  ASSERT_EQ(abs.size(), 2u);
  EXPECT_GT(abs[asi], 0.0);  // absorbing layer dissipates
}

}  // namespace
