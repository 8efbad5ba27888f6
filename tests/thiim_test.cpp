// Facade tests: the public Simulation API.
#include <gtest/gtest.h>

#include "kernels/update.hpp"
#include "thiim/simulation.hpp"

namespace {

using namespace emwd;
using thiim::EngineKind;
using thiim::Simulation;
using thiim::SimulationConfig;

SimulationConfig small_cfg(EngineKind kind) {
  SimulationConfig cfg;
  cfg.grid = {12, 12, 20};
  cfg.wavelength_cells = 10.0;
  cfg.pml.thickness = 4;
  cfg.engine = kind;
  cfg.threads = 2;
  return cfg;
}

TEST(Simulation, LifecycleEnforced) {
  Simulation sim(small_cfg(EngineKind::Naive));
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
  Simulation sim(small_cfg(EngineKind::Naive));
  sim.finalize();
  EXPECT_DOUBLE_EQ(sim.total_energy(), 0.0);
  sim.add_plane_wave(em::SourceField::Ex, 15, {1.0, 0.0});
  sim.run(10);
  EXPECT_GT(sim.total_energy(), 0.0);
  EXPECT_GT(sim.electric_energy(), 0.0);
}

TEST(Simulation, AllEngineKindsAgree) {
  // Same physical setup run through naive / spatial / MWD / auto must give
  // identical fields (the equivalence suite in miniature, via the facade).
  std::vector<double> energies;
  for (EngineKind kind :
       {EngineKind::Naive, EngineKind::Spatial, EngineKind::Mwd, EngineKind::Auto}) {
    Simulation sim(small_cfg(kind));
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
    Simulation sim(small_cfg(EngineKind::Naive));
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(6);
    return sim.total_energy();
  }();

  std::vector<SimulationConfig> configs;
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // Auto inner, searched axes
    cfg.shard_engine = EngineKind::Auto;
    configs.push_back(cfg);
  }
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // Auto inner, pinned axes
    cfg.shard_engine = EngineKind::Auto;
    cfg.num_shards = 2;
    cfg.shard_exchange_interval = 2;
    configs.push_back(cfg);
  }
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // Auto inner, measured plans
    cfg.shard_engine = EngineKind::Auto;
    cfg.shard_tune_mode = thiim::ShardTuneMode::Measured;
    configs.push_back(cfg);
  }
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // explicit per-shard MWD
    cfg.shard_engine = EngineKind::Mwd;
    cfg.num_shards = 2;
    exec::MwdParams a;
    a.dw = 2;
    a.num_tgs = 1;
    cfg.shard_mwd = {a, a};
    configs.push_back(cfg);
  }
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // overlapped exchange, fixed inner
    cfg.shard_engine = EngineKind::Naive;
    cfg.num_shards = 2;
    cfg.shard_overlap = true;
    configs.push_back(cfg);
  }
  {
    auto cfg = small_cfg(EngineKind::Sharded);  // overlap pinned through the tuner
    cfg.shard_engine = EngineKind::Auto;
    cfg.num_shards = 2;
    cfg.shard_overlap = true;
    configs.push_back(cfg);
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    Simulation sim(configs[i]);
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(6);
    EXPECT_DOUBLE_EQ(sim.total_energy(), reference_energy) << "config " << i;
  }
}

TEST(Simulation, EngineSpecStringSelectsTheEngine) {
  auto cfg = small_cfg(EngineKind::Naive);  // flat field is ignored...
  cfg.engine_spec = "mwd(dw=2,bz=2,tc=2,groups=1)";  // ...the spec wins
  Simulation sim(cfg);
  sim.finalize();
  sim.run(2);
  EXPECT_NE(sim.engine().name().find("dw=2"), std::string::npos);
  EXPECT_EQ(sim.engine().threads(), 2);
  EXPECT_STREQ(sim.last_stats().kernel_isa, kernels::row_isa());

  auto bad = small_cfg(EngineKind::Naive);
  bad.engine_spec = "mwd(dw=";  // malformed: throws, never crashes
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
  bad.engine_spec = "warp-drive";  // unknown kind
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);
}

TEST(Simulation, FlatFieldsLowerToSpecsAndAgreeBitForBit) {
  // The deprecated flat fields are a shim over engine_spec: lowering is
  // observable (lower_engine_spec) and both construction paths produce
  // identical physics.
  auto flat = small_cfg(EngineKind::Sharded);
  flat.shard_engine = EngineKind::Naive;
  flat.num_shards = 2;
  flat.shard_exchange_interval = 2;
  flat.shard_overlap = true;
  EXPECT_EQ(exec::to_string(thiim::lower_engine_spec(flat)),
            "sharded(shards=2,interval=2,overlap,inner=naive)");

  auto spec = flat;
  spec.engine_spec = "sharded(shards=2,interval=2,overlap,inner=naive)";

  double energies[2];
  int i = 0;
  for (const auto& cfg : {flat, spec}) {
    Simulation sim(cfg);
    sim.finalize();
    sim.add_point_dipole(em::SourceField::Ey, 6, 6, 12, {1.0, 0.0});
    sim.run(6);
    energies[i++] = sim.total_energy();
  }
  EXPECT_DOUBLE_EQ(energies[0], energies[1]);

  // shard_engine cannot itself be Sharded — the shim still rejects it.
  auto bad = small_cfg(EngineKind::Sharded);
  bad.shard_engine = EngineKind::Sharded;
  EXPECT_THROW(Simulation{bad}, std::invalid_argument);

  // Spot-check the other lowerings.
  EXPECT_EQ(exec::to_string(thiim::lower_engine_spec(small_cfg(EngineKind::Naive))),
            "naive");
  EXPECT_EQ(exec::to_string(thiim::lower_engine_spec(small_cfg(EngineKind::Auto))),
            "auto");
  auto mwd = small_cfg(EngineKind::Mwd);
  EXPECT_EQ(exec::to_string(thiim::lower_engine_spec(mwd)), "mwd");
  exec::MwdParams p;
  p.dw = 8;
  p.tc = 3;
  mwd.mwd = p;
  EXPECT_EQ(exec::to_string(thiim::lower_engine_spec(mwd)),
            "mwd(dw=8,bz=1,tx=1,tz=1,tc=3,groups=1)");
}

TEST(Simulation, ExplicitMwdParamsHonoured) {
  auto cfg = small_cfg(EngineKind::Mwd);
  exec::MwdParams p;
  p.dw = 2;
  p.bz = 2;
  p.tc = 2;
  p.num_tgs = 1;
  cfg.mwd = p;
  cfg.threads = 2;
  Simulation sim(cfg);
  sim.finalize();
  sim.run(2);
  EXPECT_NE(sim.engine().name().find("dw=2"), std::string::npos);
  EXPECT_EQ(sim.engine().threads(), 2);
}

TEST(Simulation, ConvergenceLoopTerminates) {
  Simulation sim(small_cfg(EngineKind::Naive));
  sim.finalize();
  sim.add_point_dipole(em::SourceField::Ex, 6, 6, 10, {1.0, 0.0});
  const double change = sim.run_until_converged(/*tol=*/1e-30, /*max_steps=*/20,
                                                /*check_every=*/5);
  EXPECT_EQ(sim.steps_done(), 20);  // tol unreachable -> runs to max_steps
  EXPECT_GT(change, 0.0);
  // A zero-source run converges instantly.
  Simulation quiet(small_cfg(EngineKind::Naive));
  quiet.finalize();
  EXPECT_DOUBLE_EQ(quiet.run_until_converged(1e-12, 10, 2), 0.0);
  EXPECT_EQ(quiet.steps_done(), 2);
}

TEST(Simulation, FieldAccessorsMatchFieldSet) {
  Simulation sim(small_cfg(EngineKind::Naive));
  sim.finalize();
  sim.fields().field(kernels::Comp::Exy).set(3, 4, 5, {1.5, 0.0});
  sim.fields().field(kernels::Comp::Exz).set(3, 4, 5, {0.5, 0.0});
  EXPECT_EQ(sim.E_at(0, 3, 4, 5), std::complex<double>(2.0, 0.0));
  sim.fields().field(kernels::Comp::Hzx).set(1, 1, 1, {0.0, 1.0});
  EXPECT_EQ(sim.H_at(2, 1, 1, 1), std::complex<double>(0.0, 1.0));
}

TEST(Simulation, AbsorptionReportCoversPalette) {
  Simulation sim(small_cfg(EngineKind::Naive));
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
