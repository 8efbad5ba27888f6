// Stage-1 tuner gap: how far is `auto`'s pick from the fastest MWD shape?
//
// For each --shapes=NXxNYxNZ:T the bench asks the tuner (stage 1 on the
// host machine, exactly what `auto` resolves to) for its ranking, then
// times on the real engines:
//   - the pick;
//   - the best model candidate of each split class: 1WD (one-thread
//     groups) and thread groups split over components (tc), z (tz) or
//     x (tx);
//   - naive and spatial, for information only.
// Candidates alternate over 5 rounds of at least a second each, so a slow
// spell of the host hits every candidate alike; each reads the median of
// its rounds.  The gap is the pick's median below the best MWD
// median.  --csv writes every row; --max-gap-pct exits 2 when any shape's
// gap exceeds it.
//
//   bench_tune --shapes=128x128x128:3,16x16x32:3,24x24x64:1
//   bench_tune --shapes=16x16x32:3 --csv=tune.csv --max-gap-pct=20
#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "em/coefficients.hpp"
#include "grid/fieldset.hpp"
#include "util/timer.hpp"

namespace {

using namespace emwd;

constexpr int kRounds = 5;
constexpr double kRoundSeconds = 1.0;  // per candidate per round

struct Shape {
  grid::Extents grid;
  int threads = 1;
};

Shape parse_shape(const std::string& text) {
  Shape s;
  char x1 = 0, x2 = 0, colon = 0;
  std::istringstream in(text);
  in >> s.grid.nx >> x1 >> s.grid.ny >> x2 >> s.grid.nz >> colon >> s.threads;
  if (!in || x1 != 'x' || x2 != 'x' || colon != ':' || !in.eof() || s.grid.nx < 1 ||
      s.grid.ny < 1 || s.grid.nz < 1 || s.threads < 1) {
    throw std::invalid_argument("bad shape '" + text + "' (want NXxNYxNZ:T)");
  }
  return s;
}

std::string split_class(const exec::MwdParams& p) {
  if (p.tg_size() == 1) return "1wd";
  if (p.tc > 1) return "tc";
  return p.tz > 1 ? "tz" : "tx";
}

struct Row {
  std::string role;  // pick, class best, or info
  std::string cls;
  std::string spec;
  double predicted = 0.0;
  std::unique_ptr<exec::Engine> engine;
  std::vector<double> mlups;  // one per round
};

double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("shapes", "comma-separated NXxNYxNZ:T shapes",
               "128x128x128:3,16x16x32:3,24x24x64:1");
  cli.add_flag("csv", "write every row to this file", "");
  cli.add_flag("max-gap-pct", "exit 2 when a pick is this far below the best MWD median", "");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("bench_tune").c_str());
    return 0;
  }
  std::vector<Shape> shapes;
  try {
    std::istringstream list(cli.get("shapes"));
    for (std::string item; std::getline(list, item, ',');) shapes.push_back(parse_shape(item));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bad --shapes: %s\n", e.what());
    return 1;
  }

  std::printf("bench_tune: stage-1 pick vs. the best timed MWD candidate per split class\n");
  util::Timer probe;
  const models::Machine machine = models::host_machine();
  std::printf("host machine ready in %.3f s; %d rounds of >= %.1f s per candidate\n\n",
              probe.seconds(), kRounds, kRoundSeconds);

  util::Table table({"shape", "role", "class", "spec", "predicted_mlups", "median_mlups",
                     "q1_mlups", "q3_mlups"});
  double worst_gap = 0.0;
  for (const Shape& shape : shapes) {
    tune::TuneConfig tc;
    tc.threads = shape.threads;
    tc.grid = shape.grid;
    tc.machine = machine;
    const tune::TuneResult tuned = tune::autotune(tc);

    std::vector<Row> rows;
    const auto add = [&](const std::string& role, const std::string& cls,
                         const exec::EngineSpec& spec, double predicted) {
      const std::string text = exec::to_string(spec);
      for (const Row& r : rows) {
        if (r.spec == text) return;
      }
      exec::BuildContext ctx;
      ctx.grid = shape.grid;
      ctx.threads = shape.threads;
      Row r{role, cls, text, predicted, exec::EngineRegistry::global().build(spec, ctx), {}};
      rows.push_back(std::move(r));
    };
    add("pick", split_class(tuned.best), exec::to_spec(tuned.best),
        tuned.best_candidate.predicted_mlups);
    for (const std::string cls : {"1wd", "tc", "tz", "tx"}) {
      const auto it = std::find_if(tuned.ranked.begin(), tuned.ranked.end(),
                                   [&](const tune::Candidate& c) {
                                     return split_class(c.params) == cls;
                                   });
      if (it != tuned.ranked.end()) {
        add("class best", cls, exec::to_spec(it->params), it->predicted_mlups);
      }
    }
    add("info", "naive", exec::parse_engine_spec("naive"), 0.0);
    add("info", "spatial", exec::parse_engine_spec("spatial"), 0.0);

    grid::Layout layout(shape.grid);
    grid::FieldSet fs(layout);
    em::build_random_stable(fs, /*seed=*/0x7u);
    const double cells = static_cast<double>(shape.grid.cells());
    // Runs of about 4M LUPs, at most the 100 steps of a daemon request.
    const int steps = std::clamp(static_cast<int>(4e6 / cells), 2, 100);
    for (Row& r : rows) r.engine->run(fs, steps);  // untimed: first-run set-up
    for (int round = 0; round < kRounds; ++round) {
      for (Row& r : rows) {
        double lups = 0.0;
        util::Timer t;
        while (t.seconds() < kRoundSeconds) {
          r.engine->run(fs, steps);
          lups += cells * steps;
        }
        r.mlups.push_back(lups / t.seconds() / 1e6);
      }
    }

    const std::string name = std::to_string(shape.grid.nx) + "x" + std::to_string(shape.grid.ny) +
                             "x" + std::to_string(shape.grid.nz) + ":" +
                             std::to_string(shape.threads);
    double best_mwd = 0.0, pick = 0.0;
    for (const Row& r : rows) {
      const double med = percentile(r.mlups, 0.5);
      if (r.role != "info") best_mwd = std::max(best_mwd, med);
      if (r.role == "pick") pick = med;
      table.add_row({name, r.role, r.cls, r.spec,
                     r.role == "info" ? "" : util::fmt_double(r.predicted, 4),
                     util::fmt_double(med, 4), util::fmt_double(percentile(r.mlups, 0.25), 4),
                     util::fmt_double(percentile(r.mlups, 0.75), 4)});
    }
    const double gap = 100.0 * (best_mwd - pick) / best_mwd;
    worst_gap = std::max(worst_gap, gap);
    std::printf("%s: pick %s reads %.2f MLUP/s, best MWD %.2f: gap %.1f %%\n", name.c_str(),
                rows.front().spec.c_str(), pick, best_mwd, gap);
  }
  std::printf("\n");
  table.print(std::cout, "timed candidates (MLUP/s over alternating rounds)");

  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << table.to_csv();
    if (!out) {
      std::fprintf(stderr, "FAIL: could not write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  const std::string max_gap = cli.get("max-gap-pct", "");
  if (!max_gap.empty() && worst_gap > cli.get_double("max-gap-pct", 1e30)) {
    std::fprintf(stderr, "FAIL: gap %.1f %% exceeds --max-gap-pct=%s\n", worst_gap,
                 max_gap.c_str());
    return 2;
  }
  return 0;
}
