// Auto-tuner walkthrough: prints the host machine's calibrated terms, shows
// the Eq. 11 pruning and model ranking, then times the best MWD
// configuration against spatial blocking on this host, next to its
// predicted MLUP/s — the paper's Sec. II-A tuning flow in miniature.
//
//   ./autotune_demo [--n=48] [--threads=4] [--steps=4] [--machine=host|haswell18]
#include <cstdio>
#include <iostream>
#include <string>

#include "em/coefficients.hpp"
#include "exec/engine.hpp"
#include "grid/fieldset.hpp"
#include "models/cache_model.hpp"
#include "tune/autotuner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emwd;

  util::Cli cli;
  cli.add_flag("n", "cubic grid size", "48");
  cli.add_flag("threads", "worker threads", "4");
  cli.add_flag("steps", "timing steps", "4");
  cli.add_flag("machine", "model machine: host or haswell18", "host");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("autotune_demo").c_str());
    return 0;
  }
  const int n = static_cast<int>(cli.get_int("n", 48));
  const int threads = static_cast<int>(cli.get_int("threads", 4));
  const int steps = static_cast<int>(cli.get_int("steps", 4));

  tune::TuneConfig tc;
  tc.threads = threads;
  tc.grid = {n, n, n};
  util::Timer probe;
  tc.machine = cli.get("machine") == "haswell18" ? models::haswell18()
                                                 : models::host_machine();
  if (const auto& k = tc.machine.calibration) {
    std::printf("calibrated %s in %.3f s (%d probe threads): %.2f MLUP/s per thread in L2 "
                "(%.0f KiB), %.2f in L3, %.1f ns per row; split drag tx %.3f, "
                "tz %.3f, tc %.3f; triad %.2f GB/s\n",
                tc.machine.name.c_str(), probe.seconds(), k->threads, k->l2_mlups,
                k->l2_bytes / 1024.0, k->l3_mlups, k->row_overhead_ns, k->drag_tx, k->drag_tz,
                k->drag_tc, tc.machine.bandwidth_bytes_per_s / 1e9);
  }

  const auto result = tune::autotune(tc);
  std::printf("parameter space: %zu candidates on %s (LLC %.1f MiB, usable %.1f)\n",
              result.ranked.size(), tc.machine.name.c_str(),
              tc.machine.llc_bytes / 1048576.0,
              models::usable_cache_fraction() * tc.machine.llc_bytes / 1048576.0);

  util::Table t({"rank", "params", "Cs(MiB)", "fits", "B/LUP", "pred MLUP/s"});
  for (std::size_t i = 0; i < result.ranked.size() && i < 8; ++i) {
    const auto& c = result.ranked[i];
    t.add_row({std::to_string(i + 1), c.params.describe(),
               util::fmt_double(c.cache_bytes / 1048576.0, 3),
               c.overflow <= 1.0 ? "yes" : "NO", util::fmt_double(c.model_bpl, 4),
               util::fmt_double(c.predicted_mlups, 4)});
  }
  t.print(std::cout, "model ranking (top 8)");

  // Time the winner against spatial blocking on real hardware.
  grid::Layout layout(tc.grid);
  grid::FieldSet fs(layout);
  em::build_random_stable(fs, 1);

  auto spatial = exec::make_spatial_engine(threads);
  spatial->run(fs, steps);
  const double spatial_mlups = spatial->stats().mlups;

  fs.clear_fields();
  auto mwd = exec::make_mwd_engine(result.best);
  mwd->run(fs, steps);
  const double mwd_mlups = mwd->stats().mlups;

  std::printf("\nmeasured on this host (%d threads, %d steps):\n", threads, steps);
  std::printf("  spatial blocking : %8.2f MLUP/s\n", spatial_mlups);
  std::printf("  tuned MWD %-24s: %8.2f MLUP/s  (%.2fx; predicted %.2f)\n",
              result.best.describe().c_str(), mwd_mlups,
              spatial_mlups > 0 ? mwd_mlups / spatial_mlups : 0.0,
              result.best_candidate.predicted_mlups);
  std::printf("\nnote: on a memory-bandwidth-starved multicore socket the paper\n"
              "measures 3x-4x; a single-core container shows mainly the tiling\n"
              "overhead, the bench_fig* binaries model the paper's machine.\n");
  return 0;
}
