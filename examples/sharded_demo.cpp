// Sharded-engine demo: the quickstart scene on the domain-decomposed path.
//
// Runs the same plane-wave-into-vacuum setup once on the naive engine and
// once with the engine named by the unified --engine spec flag (default: a
// two-shard decomposition), and shows that energies agree while the
// sharded stats expose the decomposition: shard count, halo traffic,
// exchange time.
//
//   ./sharded_demo [--n=24] [--steps=60] [--threads=2]
//       [--engine="sharded(shards=2,interval=1,inner=naive)"]
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "thiim/simulation.hpp"
#include "util/cli.hpp"
#include "util/engine_cli.hpp"
#include "util/trace_cli.hpp"

int main(int argc, char** argv) {
  using namespace emwd;

  util::Cli cli;
  cli.add_flag("n", "lateral grid size", "24");
  cli.add_flag("steps", "THIIM iterations", "60");
  cli.add_flag("threads", "total worker threads", "2");
  util::add_engine_flag(cli, "sharded(shards=2,interval=1,inner=naive)");
  util::add_trace_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("sharded_demo").c_str());
    return 0;
  }
  util::TraceFromCli trace(cli);  // --trace FILE: exported at exit
  const int n = static_cast<int>(cli.get_int("n", 24));
  const int steps = static_cast<int>(cli.get_int("steps", 60));
  const std::string spec = exec::to_string(util::engine_spec_from_cli(cli));

  thiim::SimulationConfig cfg;
  cfg.grid = {n, n, 2 * n};
  cfg.wavelength_cells = n / 2.0;
  cfg.pml.thickness = n / 8;
  cfg.threads = static_cast<int>(cli.get_int("threads", 2));

  struct RunResult {
    double energy = 0.0;
    exec::EngineStats stats;
  };
  const auto run_once = [&](const std::string& engine_spec) {
    thiim::SimulationConfig c = cfg;
    c.engine_spec = engine_spec;
    thiim::Simulation sim(c);
    sim.finalize();
    sim.add_plane_wave(em::SourceField::Ex, c.grid.nz - c.pml.thickness - 2, {1.0, 0.0});
    sim.run(steps);
    std::printf("%-40s total energy %.12e  (%.1f MLUP/s)\n", sim.engine().name().c_str(),
                sim.total_energy(), sim.last_stats().mlups);
    return RunResult{sim.total_energy(), sim.last_stats()};
  };

  std::printf("grid %dx%dx%d, %d steps, engine %s\n\n", cfg.grid.nx, cfg.grid.ny,
              cfg.grid.nz, steps, spec.c_str());
  // Semantic spec errors (unknown kind or argument key) surface when the
  // engine is built: report them like parse errors instead of aborting.
  RunResult plain, sharded;
  try {
    plain = run_once("naive");
    sharded = run_once(spec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --engine: %s\n", e.what());
    return 2;
  }

  const exec::EngineStats& st = sharded.stats;
  std::printf("\nspec run: %d shard(s), halo %.2f MiB moved, %.3f thread-s "
              "exchanging, isa %s\n",
              st.shards, static_cast<double>(st.halo_bytes_moved) / (1024.0 * 1024.0),
              st.halo_exchange_seconds, st.kernel_isa);
  const double diff = std::abs(plain.energy - sharded.energy);
  std::printf("energy difference vs naive: %.3e %s\n", diff,
              diff == 0.0 ? "(bit-identical)" : "");
  return diff <= 1e-12 * std::max(1.0, std::abs(plain.energy)) ? 0 : 1;
}
