// Two-stage sharded autotuner study: how close does the tuner's plan land
// to the exhaustive-best?
//
// Stage 1 ranks every feasible (num_shards, exchange_interval) pair with
// the analytic redundant-LUP + halo-bytes model (per-shard MWD tuned
// against each shard's real sub-grid); stage 2 times the top-k plans on the
// actual ShardedEngine.  As ground truth, this bench ALSO times every
// stage-1 candidate end to end and reports the gap between the tuner's
// chosen plan and the exhaustive-best wall time — the number that tells you
// whether refine_top_k is deep enough on this machine.  With --csv the full
// per-candidate table is written for archival (CI uploads it as an
// artifact); with --max-gap-pct the bench exits non-zero when the chosen
// plan is too far off, making it usable as a regression gate.
#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "em/coefficients.hpp"
#include "grid/fieldset.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace emwd;
  using namespace emwd::bench;

  util::Cli cli;
  cli.add_flag("nx", "grid extent x", "32");
  cli.add_flag("ny", "grid extent y", "32");
  cli.add_flag("nz", "grid extent z (the sharded dimension)", "96");
  cli.add_flag("threads", "total thread budget, split across shards", "2");
  cli.add_flag("steps", "steps per timed run (tuner and exhaustive)", "4");
  cli.add_flag("topk", "stage-2 refinement depth", "3");
  cli.add_flag("repeats", "timed repetitions per plan (best wins)", "2");
  cli.add_flag("min-shard-planes", "smallest owned z-block worth sharding", "8");
  // The unified --engine flag pins search axes: a `sharded(...)` spec's
  // shards / interval arguments become fixed_* pins; the bare default
  // searches every axis.
  emwd::bench::add_engine_flag(cli, "sharded");
  cli.add_flag("csv", "write the per-candidate table to this file", "");
  cli.add_flag("max-gap-pct", "exit non-zero when chosen-vs-best gap exceeds this", "");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("bench_tune_sharded").c_str());
    return 0;
  }

  tune::ShardedTuneConfig cfg;
  cfg.grid = {static_cast<int>(cli.get_int("nx", 32)), static_cast<int>(cli.get_int("ny", 32)),
              static_cast<int>(cli.get_int("nz", 96))};
  cfg.threads = static_cast<int>(cli.get_int("threads", 2));
  cfg.machine = models::host_machine();
  cfg.limits.min_shard_planes = static_cast<int>(cli.get_int("min-shard-planes", 8));
  cfg.timed_refinement = true;
  cfg.refine_top_k = static_cast<int>(cli.get_int("topk", 3));
  cfg.refine_steps = static_cast<int>(cli.get_int("steps", 4));
  cfg.repeats = static_cast<int>(cli.get_int("repeats", 2));

  const exec::EngineSpec pin = engine_spec_from_cli(cli);
  if (pin.kind != "sharded") {
    std::fprintf(stderr, "bad --engine: expected a sharded(...) spec, got %s\n",
                 pin.kind.c_str());
    return 1;
  }
  // Only the searchable axes may be pinned here; anything else (a full plan
  // with tps=/inner=, or a typo like shard=) must fail loudly, not be
  // silently dropped — a full plan runs via driver/bench_shard_scaling.
  try {
    static const char* const pin_keys[] = {"shards", "interval", nullptr};
    exec::detail::check_spec_keys(pin, pin_keys);
    cfg.fixed_shards = static_cast<int>(std::max(0L, pin.get_int("shards", 0)));
    cfg.fixed_interval = static_cast<int>(std::max(0L, pin.get_int("interval", 0)));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr,
                 "bad --engine: %s\n(only shards/interval pin this "
                 "bench's search; run a full plan spec via driver or "
                 "bench_shard_scaling)\n",
                 e.what());
    return 1;
  }

  banner("bench_tune_sharded",
         "two-stage sharded tuner vs. exhaustive-best (chosen-plan gap)");
  std::printf("grid %dx%dx%d, %d threads, %d-step timed runs, top-%d refinement\n\n",
              cfg.grid.nx, cfg.grid.ny, cfg.grid.nz, cfg.threads, cfg.refine_steps,
              cfg.refine_top_k);

  tune::ShardedTuneResult result = tune::autotune_sharded(cfg);

  // Ground truth: time EVERY stage-1 candidate the same way stage 2 does.
  grid::Layout layout(cfg.grid);
  grid::FieldSet fs(layout);
  em::build_random_stable(fs, /*seed=*/0x7u);
  const std::int64_t useful = static_cast<std::int64_t>(cfg.grid.cells());
  double best_seconds = std::numeric_limits<double>::infinity();
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < result.ranked.size(); ++i) {
    tune::ShardedCandidate& c = result.ranked[i];
    if (c.measured_seconds <= 0.0) {
      // Same measurement methodology as the tuner's stage 2, so the gap
      // compares like with like.
      c.measured_seconds = tune::time_sharded_plan(c.plan, fs, cfg);
      c.measured_mlups = util::mlups(useful, cfg.refine_steps, c.measured_seconds);
    }
    if (c.measured_seconds < best_seconds) {
      best_seconds = c.measured_seconds;
      best_idx = i;
    }
  }

  util::Table t = result.to_table();
  t.print(std::cout, "sharded tuning space (" + std::to_string(cfg.refine_steps) +
                         "-step timed runs, all candidates measured)");

  const tune::ShardedCandidate& chosen = result.best;
  const tune::ShardedCandidate& exhaustive = result.ranked[best_idx];
  const double gap_pct =
      100.0 * (chosen.measured_seconds - best_seconds) / best_seconds;
  // Spec strings, not describe(): either line pastes back into --engine.
  std::printf("\nchosen   : %s  %.5f s  (%.4g MLUP/s)\n",
              exec::to_string(chosen.plan.to_spec()).c_str(), chosen.measured_seconds,
              chosen.measured_mlups);
  std::printf("exhaustive-best: %s  %.5f s  (%.4g MLUP/s)\n",
              exec::to_string(exhaustive.plan.to_spec()).c_str(), best_seconds,
              exhaustive.measured_mlups);
  std::printf("chosen-vs-best gap: %.2f %%\n", gap_pct);

  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << result.to_csv();
    if (!out) {
      std::fprintf(stderr, "FAIL: could not write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }

  const std::string max_gap = cli.get("max-gap-pct", "");
  if (!max_gap.empty() && gap_pct > cli.get_double("max-gap-pct", 1e30)) {
    std::fprintf(stderr, "FAIL: gap %.2f %% exceeds --max-gap-pct=%s\n", gap_pct,
                 max_gap.c_str());
    return 2;
  }
  return 0;
}
