// General-purpose run driver: configure grid, engine, boundary conditions
// and physics from the command line, run, and print a machine-readable
// report.  This is the entry point a downstream user scripts parameter
// studies with.  Engine selection is one spec string (the unified --engine
// flag, grammar in src/exec/README.md):
//
//   ./driver --grid=32x32x64 --engine="mwd(dw=8,bz=2,tx=2,tc=3,groups=1)"
//            --steps=100 --periodic-x --report=csv
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "em/geometry.hpp"
#include "thiim/simulation.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/engine_cli.hpp"

namespace {

bool parse_grid(const std::string& text, emwd::grid::Extents* out) {
  std::istringstream is(text);
  char x1 = 0, x2 = 0;
  is >> out->nx >> x1 >> out->ny >> x2 >> out->nz;
  return is && x1 == 'x' && x2 == 'x' && out->nx > 0 && out->ny > 0 && out->nz > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emwd;

  util::Cli cli;
  cli.add_flag("grid", "NXxNYxNZ", "32x32x64");
  util::add_engine_flag(cli, "auto");
  cli.add_flag("threads", "thread budget for the engine", "2");
  cli.add_flag("steps", "THIIM iterations", "100");
  cli.add_flag("wavelength", "wavelength in cells", "20");
  cli.add_flag("pml", "PML thickness in cells", "6");
  cli.add_flag("periodic-x", "periodic boundary along x");
  cli.add_flag("stack", "build the tandem solar-cell stack (else vacuum)");
  cli.add_flag("report", "csv | text", "text");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.help_text("driver").c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("driver").c_str());
    return 0;
  }

  thiim::SimulationConfig cfg;
  if (!parse_grid(cli.get("grid"), &cfg.grid)) {
    std::fprintf(stderr, "bad --grid, expected NXxNYxNZ\n");
    return 1;
  }
  cfg.wavelength_cells = cli.get_double("wavelength", 20.0);
  cfg.pml.thickness = static_cast<int>(cli.get_int("pml", 6));
  cfg.threads = static_cast<int>(cli.get_int("threads", 2));
  if (cli.get_bool("periodic-x", false)) cfg.x_boundary = grid::XBoundary::Periodic;

  // Parse eagerly so a typo'd spec fails with a parse position instead of
  // from deep inside construction; the facade re-parses the string.
  cfg.engine_spec = exec::to_string(util::engine_spec_from_cli(cli));

  // Semantic spec errors (unknown kind, unknown argument key) surface at
  // construction: report them like parse errors instead of aborting.
  std::unique_ptr<thiim::Simulation> sim_ptr;
  try {
    sim_ptr = std::make_unique<thiim::Simulation>(cfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --engine: %s\n", e.what());
    return 2;
  }
  thiim::Simulation& sim = *sim_ptr;
  if (cli.get_bool("stack", false)) {
    auto& mats = sim.materials();
    const auto ag = mats.add(em::silver());
    const auto ucsi = mats.add(em::microcrystalline_silicon());
    const auto asi = mats.add(em::amorphous_silicon());
    const auto tco_id = mats.add(em::tco());
    em::GeometryBuilder g(mats);
    const int nz = cfg.grid.nz;
    g.layer(ag, 0, nz / 8);
    g.textured_layer(ucsi, nz / 8, nz * 3 / 8,
                     em::GeometryBuilder::rough_texture(2.0, 5.0, 3));
    g.layer(asi, nz * 3 / 8 + 2, nz / 2);
    g.layer(tco_id, nz / 2, nz * 9 / 16);
  }
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, cfg.grid.nz - cfg.pml.thickness - 2,
                     {1.0, 0.0});

  const int steps = static_cast<int>(cli.get_int("steps", 100));
  sim.run(steps);

  const auto& st = sim.last_stats();
  util::Table report({"key", "value"});
  report.add_row({"engine", sim.engine().name()});
  report.add_row({"grid", cli.get("grid")});
  report.add_row({"steps", std::to_string(steps)});
  report.add_row({"mlups", util::fmt_double(st.mlups, 6)});
  report.add_row({"seconds", util::fmt_double(st.seconds, 6)});
  report.add_row({"tiles", std::to_string(st.tiles_executed)});
  report.add_row({"barriers", std::to_string(st.barrier_episodes)});
  report.add_row({"queue_wait_s", util::fmt_double(st.queue_wait_seconds, 4)});
  report.add_row({"barrier_wait_s", util::fmt_double(st.barrier_wait_seconds, 4)});
  report.add_row({"isa", st.kernel_isa});
  // The state the engines stream, over every padded cell.
  const std::size_t state_bytes = sim.fields().allocated_bytes();
  report.add_row({"state_mb", util::fmt_double(static_cast<double>(state_bytes) / 1e6, 6)});
  report.add_row({"state_bytes_per_cell",
                  util::fmt_double(static_cast<double>(state_bytes) /
                                       static_cast<double>(sim.fields().layout().padded_cells()),
                                   6)});
  report.add_row({"E_energy", util::fmt_double(sim.electric_energy(), 8)});
  report.add_row({"total_energy", util::fmt_double(sim.total_energy(), 8)});
  const auto abs = sim.absorption_by_material();
  for (std::size_t i = 0; i < abs.size(); ++i) {
    report.add_row({"absorption[" + std::string(sim.materials().material(
                        static_cast<std::uint8_t>(i)).name) + "]",
                    util::fmt_double(abs[i], 6)});
  }

  if (cli.get("report") == "csv") {
    std::cout << report.to_csv();
  } else {
    std::cout << report.to_aligned();
  }
  return 0;
}
