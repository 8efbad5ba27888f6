// bench_e2e — the measuring program behind bench/e2e/run.py.
//
// One process runs one workload.  It sets the system up several times, warms
// it up for a second, runs a timed window of --seconds, probes the row kernel
// and the memory bandwidth, then checks the outputs against naive re-runs and
// writes one JSON result.
// Every layer is timed from outside, through its public calls, and each call
// sits in an OBS_SPAN("bench.<layer>.<call>") so that a traced run
// (--trace-out) splits the time by layer.  Tracing stops before the checks,
// so check work never shows up in a layer's time.  Workloads, metrics and
// checks are defined in bench/e2e/README.md.
//
//   bench_e2e --workload=solve_large --seed=1 --seconds=10 --out=result.json
//   bench_e2e --workload=serve_clients --seed=2 --out=r.json --trace-out=t.json
//
// Work files (the daemon's socket, snapshots) are created in the current
// directory.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/sweep.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "io/snapshot.hpp"
#include "kernels/update.hpp"
#include "models/machine.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tables.hpp"
#include "thiim/simulation.hpp"
#include "tune/autotuner.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/machine_detect.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define EMWD_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace emwd;

// Timing a debug or sanitizer build measures the instrumentation, not the
// code, so such builds refuse to run.
#if !defined(NDEBUG)
constexpr const char* kUnfitBuild = "assertions are enabled (NDEBUG is not defined)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(EMWD_BENCH_SANITIZED)
constexpr const char* kUnfitBuild = "the build is instrumented by a sanitizer";
#else
constexpr const char* kUnfitBuild = nullptr;
#endif

#ifndef EMWD_BENCH_BUILD_TYPE
#define EMWD_BENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/// Compute threads a workload uses at most: one fewer than the 4 vCPUs of
/// the measuring host, so the OS, the runner and the library's own service
/// threads (snapshot writer, daemon sessions) never preempt a thread of a
/// barrier-synchronized team.  On that KVM guest a 4-thread spin loop
/// drifted by +-20% over 20 s while 3 threads stayed within +-5%.
constexpr int kThreads = 3;
/// Set-ups per run at least; setup_s and the per-layer set-up times are
/// medians.  Three keep solve_large's 2-3 s set-ups from eating the time
/// the timed window needs.
constexpr std::size_t kSetups = 3;

/// Whether to set a simulation up once more: kSetups times, and cheap
/// set-ups until three seconds are spent (at most 100), so that the median
/// outlasts the host's slow spells of a second or less.
bool more_setups(std::size_t done, const util::Timer& spent) {
  return done < kSetups || (done < 100 && spent.seconds() < 3.0);
}

/// Repeat the workload's own operation, untimed, for a second before its
/// window opens.  On a virtual machine whose host parks idle vCPUs, the
/// first second of a multi-threaded phase that follows a single-threaded
/// one (the set-ups) runs at a fraction of its speed.
void warm_up(const std::function<void()>& op) {
  for (util::Timer t; t.seconds() < 1.0;) op();
}

// ------------------------------------------------------------- the report

double median(const std::vector<double>& v, double q = 50.0) {
  if (v.empty()) return 0.0;
  util::Stats s;
  for (double x : v) s.add(x);
  return s.percentile(q);
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything one run measured: metrics with their sample counts, the
/// operation counters behind failed_frac, the output checks and the
/// provenance of the build and host.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t n = 1;  // samples behind the value
  };

  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> provenance;  // value is JSON
  std::vector<std::string> checks;                              // JSON objects
  long attempted = 0;
  long failed = 0;
  bool checks_ok = true;

  void add(std::string name, double value, std::string unit, std::size_t n = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void note(std::string key, const std::string& text) {
    provenance.emplace_back(std::move(key), util::json_quote(text));
  }
  void note(std::string key, double value) {
    provenance.emplace_back(std::move(key), json_number(value));
  }
  /// One output check; a mismatch counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) {
      ++failed;
      checks_ok = false;
    }
    checks.push_back("{\"name\":" + util::json_quote(name) +
                     ",\"ok\":" + (ok ? "true" : "false") +
                     ",\"detail\":" + util::json_quote(detail) + '}');
  }
  /// One timed operation of the workload (a run segment, a job, a request).
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  std::string to_json() const {
    std::ostringstream os;
    os << "{\"correct\":" << (checks_ok && failed == 0 ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      os << (i ? "," : "") << util::json_quote(m.name) << ":{\"value\":"
         << json_number(m.value) << ",\"unit\":" << util::json_quote(m.unit)
         << ",\"n\":" << m.n << '}';
    }
    os << "},\"checks\":[";
    for (std::size_t i = 0; i < checks.size(); ++i) os << (i ? "," : "") << checks[i];
    os << "],\"provenance\":{";
    for (std::size_t i = 0; i < provenance.size(); ++i) {
      os << (i ? "," : "") << util::json_quote(provenance[i].first) << ':'
         << provenance[i].second;
    }
    os << "}}";
    return os.str();
  }
};

/// Runs after the traced part of a workload: the output checks and the
/// metrics that need the same-run bandwidth probe.
using Finish = std::function<void(Report&, double triad_gbps)>;

// --------------------------------------------------------- seeded inputs

/// The builtin tandem scene with seeded texture seeds, as the JSON document
/// the daemon's reload op takes; named "bench".
std::string seeded_scene_json(util::Xoshiro256& rng) {
  static const char* const kFieldNames[] = {"Ex", "Ey", "Hx", "Hy"};
  const serve::Tables builtin = serve::builtin_tables();
  const serve::Scene& tandem = *builtin.find("tandem");
  std::ostringstream os;
  os.precision(17);
  os << "{\"name\":\"bench\",\"layers\":[";
  for (std::size_t i = 0; i < tandem.layers.size(); ++i) {
    const serve::SceneLayer& l = tandem.layers[i];
    os << (i ? "," : "") << "{\"material\":" << util::json_quote(l.material) << ",\"z\":["
       << l.z_lo << ',' << l.z_hi << ']';
    if (l.rough_amp > 0.0) {
      os << ",\"rough\":{\"amp\":" << l.rough_amp << ",\"corr\":" << l.rough_corr
         << ",\"seed\":" << rng.below(1u << 30) << '}';
    }
    os << '}';
  }
  const serve::SceneSource& src = *tandem.source;
  os << "],\"source\":{\"field\":\"" << kFieldNames[static_cast<int>(src.field)]
     << "\",\"z\":" << src.z << ",\"amplitude\":[" << src.amplitude.real() << ','
     << src.amplitude.imag() << "]}}";
  return os.str();
}

/// Every input of a run comes from --seed: the scene's texture seeds, the
/// wavelengths and which outputs get cross-checked.  The program under test
/// receives only these generated values.
struct Inputs {
  explicit Inputs(std::uint64_t seed)
      : rng(seed),
        scene_json(seeded_scene_json(rng)),
        scene(serve::Scene::from_json(util::JsonValue::parse(scene_json))) {}

  double wavelength() { return rng.uniform(16.0, 30.0); }

  util::Xoshiro256 rng;
  std::string scene_json;
  serve::Scene scene;
};

thiim::SimulationConfig sim_config(const grid::Extents& g, double lambda,
                                   const std::string& spec, int threads) {
  thiim::SimulationConfig cfg;
  cfg.grid = g;
  cfg.wavelength_cells = lambda;
  cfg.x_boundary = grid::XBoundary::Periodic;
  cfg.engine_spec = spec;
  cfg.threads = threads;
  return cfg;
}

// ----------------------------------------------------------- observables

struct Observables {
  double total_energy = 0.0;
  double electric_energy = 0.0;
  std::vector<double> absorption;

  friend bool operator==(const Observables&, const Observables&) = default;
};

Observables observe(const thiim::Simulation& sim) {
  OBS_SPAN("bench.em.observables");
  return {sim.total_energy(), sim.electric_energy(), sim.absorption_by_material()};
}

Observables observables_of(const batch::JobResult& r) {
  return {r.total_energy, r.electric_energy, r.absorption};
}

std::string describe(const Observables& got, const Observables& want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "total_energy %.17g vs %.17g, electric_energy %.17g vs %.17g",
                got.total_energy, want.total_energy, got.electric_energy,
                want.electric_energy);
  return got == want ? "bit-identical" : buf;
}

// ----------------------------------------------------------------- set-up

struct SimSetup {
  std::unique_ptr<thiim::Simulation> sim;  // the last set-up, kept for the run
  std::string spec;                        // the concrete spec it runs
  std::vector<double> resolve_s, construct_s, apply_s, total_s;
};

/// Tune (when the spec asks for it), construct and paint one simulation,
/// repeatedly (more_setups), keeping the last.  Each earlier simulation is
/// destroyed before the next is built, so only one state is resident.
SimSetup set_up(const thiim::SimulationConfig& cfg, const serve::Scene& scene) {
  const exec::EngineSpec requested = exec::parse_engine_spec(cfg.engine_spec);
  exec::BuildContext ctx;  // what the Simulation constructor builds with
  ctx.grid = cfg.grid;
  ctx.threads = cfg.threads;
  ctx.machine = models::host_machine();
  SimSetup s;
  for (util::Timer spent; more_setups(s.total_s.size(), spent);) {
    s.sim.reset();
    util::Timer total;
    util::Timer t;
    exec::EngineSpec spec = requested;
    if (tune::spec_needs_tuning(requested)) {
      OBS_SPAN("bench.tune.resolve");
      spec = tune::resolve_auto_spec(requested, ctx);
      s.resolve_s.push_back(t.seconds());
    }
    thiim::SimulationConfig concrete = cfg;
    concrete.engine_spec = exec::to_string(spec);
    t.reset();
    {
      OBS_SPAN("bench.thiim.construct");
      s.sim = std::make_unique<thiim::Simulation>(concrete);
    }
    s.construct_s.push_back(t.seconds());
    t.reset();
    {
      OBS_SPAN("bench.em.scene_apply");
      scene.apply(*s.sim);
    }
    s.apply_s.push_back(t.seconds());
    s.total_s.push_back(total.seconds());
    s.spec = concrete.engine_spec;
  }
  return s;
}

/// The tune/thiim/em set-up metrics.
void report_setup_layers(Report& rep, const SimSetup& s) {
  rep.add("tune.resolve_s", median(s.resolve_s), "s", s.resolve_s.size());
  rep.add("thiim.construct_s", median(s.construct_s), "s", s.construct_s.size());
  rep.add("em.scene_apply_s", median(s.apply_s), "s", s.apply_s.size());
}

/// em.observables_s for the workloads whose simulations run inside the
/// batch layer: timed on the set-up simulation instead.
void report_observables_time(Report& rep, const thiim::Simulation& sim) {
  util::Timer t;
  observe(sim);
  rep.add("em.observables_s", t.seconds(), "s");
}

// ----------------------------------------------------------------- models

/// The tuner's stage-1 view of a concrete spec: predicted MLUP/s and the
/// computed bytes per LUP (code balance degraded by cache overflow).
tune::Candidate stage1_model(const std::string& spec_text, const grid::Extents& g,
                             int threads) {
  const exec::EngineSpec spec = exec::parse_engine_spec(spec_text);
  const models::Machine m = models::host_machine();
  if (spec.kind == "mwd") {
    return tune::score_candidate(exec::mwd_params_from_spec(spec, threads), g, m);
  }
  if (spec.kind == "sharded") {
    const int shards = static_cast<int>(spec.get_int("shards", 1));
    const exec::EngineSpec inner = spec.child("inner").value_or(exec::EngineSpec{"mwd", {}});
    const grid::Extents sub{g.nx, g.ny, g.nz / shards};
    tune::Candidate c =
        tune::score_candidate(exec::mwd_params_from_spec(inner, threads / shards), sub, m);
    c.predicted_mlups *= shards;
    return c;
  }
  throw std::logic_error("bench_e2e: no stage-1 model for engine spec " + spec_text);
}

/// Engine-layer metrics from the merged stats of the measured compute.
/// `threads` is the team size of one engine; `tuned` reports the model error
/// of a tuner pick.
void report_exec(Report& rep, const exec::EngineStats& st, int threads,
                 const tune::Candidate& model, bool tuned, double naive1_mlups,
                 double triad_gbps, std::size_t n) {
  const double thread_s = st.seconds * threads;
  const double steps = static_cast<double>(st.steps);
  rep.add("exec.mlups", st.mlups, "MLUP/s", n);
  rep.add("exec.barrier_wait_share", share(st.barrier_wait_seconds, thread_s), "frac", n);
  rep.add("exec.queue_wait_share", share(st.queue_wait_seconds, thread_s), "frac", n);
  rep.add("exec.barrier_episodes_per_step",
          share(static_cast<double>(st.barrier_episodes), steps), "count", n);
  rep.add("exec.tiles_per_step", share(static_cast<double>(st.tiles_executed), steps),
          "count", n);
  rep.add("exec.model_bytes_per_lup", model.model_bpl, "B/LUP");
  rep.add("exec.roof_frac", share(st.mlups * 1e6 * model.model_bpl, triad_gbps * 1e9),
          "frac", n);
  rep.add("exec.speedup_vs_naive1", share(st.mlups, naive1_mlups), "x", n);
  if (tuned) {
    const double ratio = share(model.predicted_mlups, st.mlups);
    rep.add("tune.model_error_ratio", ratio, "ratio", n);
    rep.add("tune.model_error_frac", std::fabs(ratio - 1.0), "frac", n);
  }
}

/// Halo-exchange metrics of the sharded engine (all zero without a halo).
void report_dist(Report& rep, const exec::EngineStats& st, std::size_t n) {
  const double steps = static_cast<double>(st.steps);
  rep.add("dist.halo_exposed_share", share(st.halo_exposed_seconds(), st.seconds * st.shards),
          "frac", n);
  rep.add("dist.halo_hidden_frac", share(st.halo_hidden_seconds, st.halo_exchange_seconds),
          "frac", n);
  rep.add("dist.halo_mb_per_step", share(static_cast<double>(st.halo_bytes_moved) / 1e6, steps),
          "MB", n);
  rep.add("dist.halo_stage_us", share(st.halo_stage_seconds * 1e6, steps), "us", n);
  rep.add("dist.halo_unstage_us", share(st.halo_unstage_seconds * 1e6, steps), "us", n);
}

/// Restart the process's peak resident set at its current resident set
/// (Linux: "5" to /proc/self/clear_refs), so that peak_rss_mb holds what
/// the last set-up left resident plus what the run adds, and not the
/// benchmark's own repeated set-ups.  Records in the provenance whether it
/// worked.
void reset_peak_rss(Report& rep) {
  std::ofstream f("/proc/self/clear_refs");
  f << '5';
  rep.note("peak_rss_scope", f.flush() ? "after set-up" : "whole process");
}

/// The peak resident set (VmHWM) since reset_peak_rss, in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
  }
  throw std::runtime_error("bench_e2e: no VmHWM in /proc/self/status");
}

// ------------------------------------------------------- timed segments

struct Segments {
  std::vector<double> seconds;  // wall time of each timed run() call
  exec::EngineStats stats;      // merged over the timed segments
};

/// Run segments of `steps` until `budget_s` has passed (at least
/// `min_segments`).  Each segment is one Simulation::run call.
Segments run_segments(thiim::Simulation& sim, int steps, double budget_s,
                      std::size_t min_segments, Report& rep) {
  Segments w;
  util::Timer window;
  while (w.seconds.size() < min_segments || window.seconds() < budget_s) {
    util::Timer t;
    int advanced = 0;
    {
      OBS_SPAN("bench.thiim.run");
      advanced = sim.run(steps);
    }
    w.seconds.push_back(t.seconds());
    rep.op(advanced == steps);
    w.stats.merge(sim.last_stats());
  }
  return w;
}

/// End-to-end metrics of a segmented single-simulation run.
void report_segments(Report& rep, const Segments& w, const grid::Extents& g, int steps) {
  std::vector<double> mlups;
  for (double s : w.seconds) {
    mlups.push_back(static_cast<double>(g.cells()) * steps / s / 1e6);
  }
  rep.add("run_mlups", median(mlups), "MLUP/s", mlups.size());
  rep.add("latency_s_p50", median(w.seconds), "s", w.seconds.size());
}

struct NaiveRun {
  Observables obs;
  double naive1_mlups = 0.0;
};

/// The reference for the prefix of a single-simulation workload: its first
/// `steps` re-run from scratch on the naive engine.  The first steps (about
/// 2M LUPs) run on a 1-thread naive engine — the single-thread baseline
/// behind exec.speedup_vs_naive1 — and the rest on kThreads naive threads.
/// The split is exact: run(a); run(b) is bit-identical to run(a + b).
NaiveRun naive_rerun(thiim::SimulationConfig cfg, const serve::Scene& scene, int steps) {
  cfg.engine_spec = "naive";
  cfg.threads = kThreads;
  thiim::Simulation sim(cfg);
  scene.apply(sim);
  exec::BuildContext ctx;
  ctx.grid = cfg.grid;
  ctx.threads = 1;
  const std::unique_ptr<exec::Engine> one =
      exec::EngineRegistry::global().build(exec::parse_engine_spec("naive"), ctx);
  const int baseline_steps =
      std::clamp(static_cast<int>(2'000'000 / cfg.grid.cells()), 1, steps);
  one->run(sim.fields(), baseline_steps);
  if (steps > baseline_steps) sim.run(steps - baseline_steps);
  return {observe(sim), one->stats().mlups};
}

// ------------------------------------------------------------ solve_large

/// One DRAM-bound simulation: 1.34 GB of state, over 4x the LLC.
Finish solve_large(Inputs& in, double seconds, Report& rep) {
  const grid::Extents g{128, 128, 128};
  constexpr int kSegmentSteps = 5;
  const thiim::SimulationConfig cfg = sim_config(g, in.wavelength(), "auto", kThreads);
  SimSetup setup = set_up(cfg, in.scene);
  rep.add("setup_s", median(setup.total_s), "s", setup.total_s.size());
  report_setup_layers(rep, setup);
  reset_peak_rss(rep);
  thiim::Simulation& sim = *setup.sim;
  const auto segment = [&] {
    OBS_SPAN("bench.thiim.run");
    sim.run(kSegmentSteps);
  };
  // The first two segments open the warm-up and are the prefix the output
  // check re-runs: a naive re-run of the whole window would cost more than
  // twice the window.
  segment();
  segment();
  const int prefix_steps = sim.steps_done();
  const Observables prefix = observe(sim);
  warm_up(segment);
  const Segments w = run_segments(sim, kSegmentSteps, seconds, 3, rep);
  report_segments(rep, w, g, kSegmentSteps);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  util::Timer t;
  const Observables last = observe(sim);
  rep.add("em.observables_s", t.seconds(), "s");
  rep.note("engine_spec", setup.spec);
  rep.note("kernel_isa", w.stats.kernel_isa);
  const std::string spec = setup.spec;
  setup.sim.reset();  // free the state before the probes and the check
  return [=, &in](Report& r, double triad_gbps) {
    r.check("solve_large final energies are finite and positive",
            std::isfinite(last.total_energy) && last.total_energy > 0.0,
            "total_energy " + json_number(last.total_energy));
    const NaiveRun ref = naive_rerun(cfg, in.scene, prefix_steps);
    r.check("solve_large first " + std::to_string(prefix_steps) + " steps == naive re-run",
            prefix == ref.obs, describe(prefix, ref.obs));
    report_exec(r, w.stats, kThreads, stage1_model(spec, g, kThreads), true, ref.naive1_mlups,
                triad_gbps, w.seconds.size());
    report_dist(r, w.stats, w.seconds.size());
  };
}

// ----------------------------------------------------------- sharded_ckpt

/// One sharded simulation with overlapped shm halos and one asynchronous
/// snapshot capture per segment.  Two shards of one thread each leave a
/// vCPU of kThreads to the snapshot writer's background thread.
Finish sharded_ckpt(Inputs& in, double seconds, Report& rep) {
  const grid::Extents g{64, 64, 128};
  constexpr int kShards = 2;
  constexpr int kSegmentSteps = 20;
  const std::string path = "sharded_ckpt.snap";
  const thiim::SimulationConfig cfg =
      sim_config(g, in.wavelength(),
                 "sharded(shards=2,interval=2,overlap,transport=shm,inner=mwd)", kShards);
  SimSetup setup = set_up(cfg, in.scene);
  rep.add("setup_s", median(setup.total_s), "s", setup.total_s.size());
  report_setup_layers(rep, setup);
  reset_peak_rss(rep);
  thiim::Simulation& sim = *setup.sim;
  const auto segment = [&] {  // the first also prepares the shard state
    OBS_SPAN("bench.thiim.run");
    sim.run(kSegmentSteps);
  };
  // The first segment opens the warm-up and is the prefix the output check
  // re-runs.
  segment();
  const int prefix_steps = sim.steps_done();
  const Observables prefix = observe(sim);
  warm_up(segment);
  std::vector<double> capture_s;
  io::SnapshotWriter::Stats ws;
  Segments w;
  {
    io::SnapshotWriter writer(sim.fields().layout());
    // The hook fires once per 20-step segment, at its 10th step, so each
    // write overlaps the segment's second half.
    sim.set_step_hook(10, [&](int) {
      util::Timer t;
      {
        OBS_SPAN("bench.io.capture");
        writer.capture(sim.fields(), sim.snapshot_info(), path);
      }
      capture_s.push_back(t.seconds());
      return true;
    });
    w = run_segments(sim, kSegmentSteps, seconds, 2, rep);
    sim.set_step_hook(0, nullptr);
    writer.wait_idle();
    ws = writer.stats();
  }
  report_segments(rep, w, g, kSegmentSteps);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  const std::size_t n = capture_s.size();
  rep.add("io.capture_ms_p50", median(capture_s) * 1e3, "ms", n);
  rep.add("io.capture_stall_share", share(sum(capture_s), sum(w.seconds)), "frac", n);
  rep.add("io.blocked_s", ws.blocked_seconds, "s", n);
  rep.add("io.write_mb_per_s", share(static_cast<double>(ws.bytes_written) / 1e6, ws.write_seconds),
          "MB/s", static_cast<std::size_t>(ws.written));
  rep.add("io.snapshots", static_cast<double>(ws.written), "count");
  util::Timer t;
  const Observables last = observe(sim);
  rep.add("em.observables_s", t.seconds(), "s");
  const int steps = sim.steps_done();
  rep.note("engine_spec", setup.spec);
  rep.note("kernel_isa", w.stats.kernel_isa);
  const std::string spec = setup.spec;
  setup.sim.reset();
  return [=, &in](Report& r, double triad_gbps) {
    const bool valid = io::validate_snapshot_file(path);
    r.check("sharded_ckpt last snapshot validates", valid, path);
    if (valid) {
      // The last snapshot, taken 10 steps before the end, restored into a
      // naive simulation and run to the end, must reach the final state.
      thiim::SimulationConfig naive = cfg;
      naive.engine_spec = "naive";
      naive.threads = kThreads;
      thiim::Simulation tail(naive);
      in.scene.apply(tail);
      const int from = tail.restore_snapshot_file(path).steps_done;
      tail.run(steps - from);
      const Observables want = observe(tail);
      r.check("sharded_ckpt snapshot at step " + std::to_string(from) +
                  " + naive steps to " + std::to_string(steps) + " == final state",
              last == want, describe(last, want));
    }
    std::remove(path.c_str());  // 100 MB that would otherwise be written back during later runs
    const NaiveRun ref = naive_rerun(cfg, in.scene, prefix_steps);
    r.check("sharded_ckpt first " + std::to_string(prefix_steps) + " steps == naive re-run",
            prefix == ref.obs, describe(prefix, ref.obs));
    report_exec(r, w.stats, kShards, stage1_model(spec, g, kShards), false,
                ref.naive1_mlups, triad_gbps, w.seconds.size());
    report_dist(r, w.stats, w.seconds.size());
  };
}

// ---------------------------------------------------- batch job metrics

/// Finished jobs of one grid shape, with their merged engine stats.
struct JobSet {
  explicit JobSet(const grid::Extents& g) : grid_(g) {}

  void add(const batch::JobResult& r) {
    lups += static_cast<double>(grid_.cells()) * r.steps_done;
    stats.merge(r.stats);
    ok.push_back(r);
  }

  std::vector<batch::JobResult> ok;
  exec::EngineStats stats;
  double lups = 0.0;

  std::vector<double> walls() const {
    std::vector<double> v;
    for (const batch::JobResult& r : ok) v.push_back(r.wall_seconds);
    return v;
  }
  double engine_seconds() const {
    double s = 0.0;
    for (const batch::JobResult& r : ok) s += r.stats.seconds;
    return s;
  }

 private:
  grid::Extents grid_;
};

void report_batch(Report& rep, const JobSet& jobs, double window_s, int executors,
                  const batch::EnginePool::Stats& pool, const batch::PlanCache::Stats& plans) {
  const std::vector<double> walls = jobs.walls();
  const std::size_t n = walls.size();
  rep.add("batch.jobs_per_s", share(static_cast<double>(n), window_s), "1/s", n);
  rep.add("batch.job_s_p80", median(walls, 80.0), "s", n);
  rep.add("batch.job_engine_share", share(jobs.engine_seconds(), sum(walls)), "frac", n);
  rep.add("batch.executor_busy_frac", share(sum(walls), executors * window_s), "frac", n);
  rep.add("batch.pool_hit_frac",
          share(static_cast<double>(pool.engine_hits),
                static_cast<double>(pool.engine_hits + pool.engine_builds)),
          "frac", n);
  rep.add("batch.plan_hit_frac",
          share(static_cast<double>(plans.hits), static_cast<double>(plans.hits + plans.misses)),
          "frac", n);
}

// ------------------------------------------------------------ sweep_cells

/// The production fleet: wavelength sweeps of a small cache-resident cell,
/// kThreads concurrent 1-thread jobs, the sweep's fastest layout on the
/// 4-vCPU Xeon guest: 41 MLUP/s, against 35 for two 2-thread jobs on all
/// four vCPUs and 17 for one 2-thread job.
Finish sweep_cells(Inputs& in, double seconds, Report& rep) {
  const grid::Extents g{24, 24, 64};
  constexpr int kExecutors = kThreads;
  constexpr int kJobThreads = 1;
  constexpr int kSteps = 150;
  // The paper's 80-160 simulations per design, at the top end: one sweep
  // outlasts a default window, so each run measures one sweep's steady
  // state (a second sweep in one process would raise the peak RSS, as the
  // allocator keeps the first sweep's freed FieldSets).
  constexpr std::size_t kSweep = 160;
  // Set-up: the cold set-up of one job, which the plan cache and the
  // engine pool then amortize over the sweep.
  SimSetup setup = set_up(sim_config(g, in.wavelength(), "auto", kJobThreads), in.scene);
  rep.add("setup_s", median(setup.total_s), "s", setup.total_s.size());
  report_setup_layers(rep, setup);
  report_observables_time(rep, *setup.sim);
  setup.sim.reset();
  reset_peak_rss(rep);

  batch::SweepConfig sc;
  sc.base = sim_config(g, 24.0, "auto", 0);  // threads 0: threads_per_job
  sc.steps = kSteps;
  sc.setup = in.scene.setup();
  sc.scheduler.concurrency = kExecutors;
  // One single-cpu slot per vCPU, so each executor is pinned to a vCPU of
  // its own and the spare one is left to the benchmark's and the OS's
  // threads.  With kExecutors slots, one slot spans two vCPUs; over 10
  // interleaved runs on the measuring host the median job time then spread
  // 0.10 of its median, against 0.05 with a slot per vCPU.
  sc.scheduler.slots =
      std::max(kExecutors, static_cast<int>(std::thread::hardware_concurrency()));
  sc.scheduler.threads_per_job = kJobThreads;

  JobSet jobs(g);
  std::vector<std::pair<double, batch::JobResult>> first_sweep;  // (wavelength, result)
  batch::EnginePool::Stats pool;
  batch::PlanCache::Stats plans;
  int executors = 0;
  // The jobs that finish in the sweep's first second are its warm-up (see
  // warm_up; a separate warm-up sweep would raise the peak RSS).  The window
  // opens at the first completion after it and closes at the last one once
  // `seconds` have passed; the sweep then drains its queue (those jobs never
  // start and are not counted).  Sweeps run back to back until then.
  util::Timer clock;
  double open_s = -1.0;
  double close_s = 0.0;
  std::vector<bool> timed;  // by job index: finished inside the window
  for (int sweep = 0; open_s < 0.0 || close_s - open_s < seconds; ++sweep) {
    sc.wavelengths.clear();
    for (std::size_t i = 0; i < kSweep; ++i) sc.wavelengths.push_back(in.wavelength());
    timed.assign(kSweep, false);
    sc.progress = [&](const batch::JobResult& j, std::size_t, std::size_t) {
      const double now = clock.seconds();
      if (open_s >= 0.0) {
        timed.at(j.index) = true;
        close_s = now;
      } else if (now >= 1.0) {
        open_s = now;
      }
      return open_s < 0.0 || now - open_s < seconds;
    };
    batch::SweepResult r;
    {
      OBS_SPAN("bench.batch.run_sweep");
      r = batch::run_sweep(sc);
    }
    for (const batch::JobResult& j : r.results) {
      if (j.cancelled) continue;
      rep.op(j.ok);
      if (!j.ok || !timed.at(j.index)) continue;
      jobs.add(j);
      if (sweep == 0) first_sweep.emplace_back(sc.wavelengths.at(j.index), j);
    }
    pool.engine_hits += r.stats.pool.engine_hits;
    pool.engine_builds += r.stats.pool.engine_builds;
    plans.hits += r.stats.plans.hits;
    plans.misses += r.stats.plans.misses;
    executors = r.stats.executors;
  }
  const double window_s = close_s - open_s;
  const std::vector<double> walls = jobs.walls();
  rep.add("run_mlups", jobs.lups / window_s / 1e6, "MLUP/s", walls.size());
  rep.add("latency_s_p50", median(walls), "s", walls.size());
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  report_batch(rep, jobs, window_s, executors, pool, plans);
  const std::string spec = jobs.ok.empty() ? "" : jobs.ok.front().engine_spec;
  rep.note("engine_spec", spec);
  rep.note("kernel_isa", jobs.stats.kernel_isa);
  // Two seed-chosen jobs of the first sweep get re-run.
  std::vector<std::pair<double, batch::JobResult>> picked;
  for (int i = 0; i < 2 && !first_sweep.empty(); ++i) {
    const std::size_t k = static_cast<std::size_t>(in.rng.below(first_sweep.size()));
    picked.push_back(first_sweep[k]);
    first_sweep.erase(first_sweep.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return [=, &in](Report& r, double triad_gbps) {
    // Each picked job re-runs standalone on a 1-thread naive engine, which
    // doubles as the single-thread baseline.
    std::vector<double> naive1;
    for (const auto& [lambda, job] : picked) {
      thiim::Simulation sim(sim_config(g, lambda, "naive", 1));
      in.scene.apply(sim);
      sim.run(kSteps);
      naive1.push_back(sim.last_stats().mlups);
      const Observables want = observe(sim);
      r.check("sweep_cells " + job.name + " == 1-thread naive re-run",
              observables_of(job) == want, describe(observables_of(job), want));
    }
    report_exec(r, jobs.stats, kJobThreads, stage1_model(spec, g, kJobThreads), true,
                median(naive1), triad_gbps, walls.size());
    report_dist(r, jobs.stats, walls.size());
  };
}

// ---------------------------------------------------------- serve_clients

/// One bench-side connection to the daemon.
class Connection {
 public:
  explicit Connection(const std::string& path) : fd_(util::connect_unix(path)) {}

  void send(const std::string& payload) {
    if (!util::send_frame(fd_.get(), payload)) {
      throw std::runtime_error("bench_e2e: daemon closed the connection");
    }
  }
  util::JsonValue recv() {
    std::optional<std::string> frame = util::recv_frame(fd_.get(), serve::kMaxFrame);
    if (!frame) throw std::runtime_error("bench_e2e: daemon closed the connection");
    return util::JsonValue::parse(*frame);
  }

 private:
  util::UniqueFd fd_;
};

const grid::Extents kRequestGrid{16, 16, 32};
constexpr int kRequestSteps = 100;

std::string request_spec(const std::vector<double>& lambdas, int steps,
                         const std::string& engine) {
  std::string s = "scene=bench;grid=" + std::to_string(kRequestGrid.nx) + 'x' +
                  std::to_string(kRequestGrid.ny) + 'x' + std::to_string(kRequestGrid.nz) +
                  ";lambda=";
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    if (i) s += ',';
    s += json_number(lambdas[i]);
  }
  return s + ";steps=" + std::to_string(steps) + ";engine=" + engine + ";xb=periodic";
}

/// One `sweep` request as the client saw it.
struct Request {
  std::vector<double> lambdas;
  double ack_s = 0.0, first_s = 0.0, done_s = 0.0;
  std::size_t rejected = 0;  // jobs the daemon refused
  bool ok = false;
  std::vector<batch::JobResult> results;  // by expansion index
};

Request send_request(Connection& c, const std::string& id, std::vector<double> lambdas,
                     int steps) {
  OBS_SPAN("bench.serve.request");
  Request r;
  r.results.resize(lambdas.size());
  util::Timer t;
  c.send("{\"op\":\"sweep\",\"id\":" + util::json_quote(id) + ",\"spec\":" +
         util::json_quote(request_spec(lambdas, steps, "auto")) + '}');
  r.lambdas = std::move(lambdas);
  std::size_t streamed = 0;
  bool error = false;
  for (;;) {
    const util::JsonValue f = c.recv();
    const std::string type = f.get_string("type", "");
    if (type == "ack") {
      r.ack_s = t.seconds();
    } else if (type == "rejected") {
      r.rejected += static_cast<std::size_t>(f.get_int("count", 0));
    } else if (type == "result") {
      if (streamed++ == 0) r.first_s = t.seconds();
      const util::JsonValue* result = f.find("result");
      if (!result) throw std::runtime_error("bench_e2e: result frame without a result");
      r.results.at(static_cast<std::size_t>(f.get_int("index", -1))) =
          batch::JobResult::from_json(*result);
    } else if (type == "done") {
      r.done_s = t.seconds();
      break;
    } else if (type == "error") {
      error = true;
      break;
    }
  }
  r.ok = !error && r.rejected == 0 && streamed == r.results.size() &&
         std::all_of(r.results.begin(), r.results.end(),
                     [](const batch::JobResult& j) { return j.ok; });
  return r;
}

/// Interactive clients of the daemon: two closed-loop clients sending small
/// 2-wavelength sweeps while a third polls status every 50 ms.
Finish serve_clients(Inputs& in, double seconds, Report& rep) {
  // The cold set-up of one request's job, for the tune/thiim/em layers.
  SimSetup job_setup =
      set_up(sim_config(kRequestGrid, in.wavelength(), "auto", kThreads), in.scene);
  report_setup_layers(rep, job_setup);
  report_observables_time(rep, *job_setup.sim);
  job_setup.sim.reset();

  // Set-up: start the daemon, install the seeded scene through the reload
  // op and fill its plan cache and engine pool with one 1-step request.
  // The daemon runs with emwdd's defaults (one slot, one executor) except
  // for kThreads-thread jobs, on a socket in the current directory.
  serve::ServerConfig cfg;
  cfg.socket_path = "bench_e2e.sock";
  cfg.scheduler.threads_per_job = kThreads;
  cfg.scheduler.max_idle_engines = 8;
  cfg.scheduler.max_idle_fields = 16;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<Connection> admin;
  std::vector<double> setup_s;
  const double warm_lambda = in.wavelength();
  for (util::Timer spent; more_setups(setup_s.size(), spent);) {
    admin.reset();
    server.reset();
    util::Timer t;
    {
      OBS_SPAN("bench.serve.start");
      server = std::make_unique<serve::Server>(cfg);
    }
    admin = std::make_unique<Connection>(cfg.socket_path);
    {
      OBS_SPAN("bench.serve.reload");
      admin->send("{\"op\":\"reload\",\"tables\":{\"scenes\":[" + in.scene_json + "]}}");
      const util::JsonValue reply = admin->recv();
      if (reply.get_string("type", "") != "reloaded") {
        throw std::runtime_error("bench_e2e: reload failed");
      }
    }
    if (!send_request(*admin, "warm", {warm_lambda}, 1).ok) {
      throw std::runtime_error("bench_e2e: warm-up request failed");
    }
    setup_s.push_back(t.seconds());
  }
  rep.add("setup_s", median(setup_s), "s", setup_s.size());
  reset_peak_rss(rep);
  int warm_requests = 0;
  warm_up([&] {
    const std::string id = "warm-" + std::to_string(warm_requests++);
    if (!send_request(*admin, id, {warm_lambda, warm_lambda}, kRequestSteps).ok) {
      throw std::runtime_error("bench_e2e: warm-up request failed");
    }
  });

  constexpr int kClients = 2;
  std::vector<std::vector<Request>> done(kClients);
  std::vector<std::exception_ptr> errors(kClients + 1);
  std::vector<double> status_s;
  std::size_t status_failed = 0;
  std::atomic<bool> stop{false};
  std::vector<util::Xoshiro256> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(in.rng.next());

  util::Timer window;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Connection conn(cfg.socket_path);
        for (int i = 0; done[c].size() < 2 || window.seconds() < seconds; ++i) {
          std::vector<double> lambdas{streams[c].uniform(16.0, 30.0),
                                      streams[c].uniform(16.0, 30.0)};
          const std::string id = std::to_string(c) + '-' + std::to_string(i);
          done[c].push_back(send_request(conn, id, std::move(lambdas), kRequestSteps));
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  std::thread poller([&] {
    try {
      Connection conn(cfg.socket_path);
      while (!stop.load()) {
        util::Timer t;
        {
          OBS_SPAN("bench.serve.status");
          conn.send("{\"op\":\"status\"}");
          if (conn.recv().get_string("type", "") != "status") ++status_failed;
        }
        status_s.push_back(t.seconds());
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, 0.05 - t.seconds())));
      }
    } catch (...) {
      errors[kClients] = std::current_exception();
    }
  });
  for (std::thread& t : clients) t.join();
  const double window_s = window.seconds();
  stop.store(true);
  poller.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  admin->send("{\"op\":\"status\"}");
  const util::JsonValue status = admin->recv();
  admin.reset();
  server->stop();
  server.reset();

  JobSet jobs(kRequestGrid);
  std::vector<Request> ok;
  std::vector<double> ack, first, latency, wait;
  std::size_t submitted = 0, rejected = 0;
  for (const std::vector<Request>& client : done) {
    for (const Request& r : client) {
      rep.op(r.ok);
      submitted += r.lambdas.size();
      rejected += r.rejected;
      if (!r.ok) continue;
      ok.push_back(r);
      double compute_s = 0.0;
      for (const batch::JobResult& j : r.results) {
        jobs.add(j);
        compute_s += j.wall_seconds;
      }
      ack.push_back(r.ack_s);
      first.push_back(r.first_s);
      latency.push_back(r.done_s);
      wait.push_back(r.done_s - compute_s);
    }
  }
  for (std::size_t i = 0; i < status_s.size(); ++i) rep.op(i >= status_failed);
  const std::size_t n = latency.size();
  rep.add("run_mlups", jobs.lups / window_s / 1e6, "MLUP/s", jobs.ok.size());
  rep.add("latency_s_p50", median(latency), "s", n);
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("serve.first_result_s_p50", median(first), "s", n);
  rep.add("serve.first_result_s_p90", median(first, 90.0), "s", n);
  rep.add("serve.done_s_p90", median(latency, 90.0), "s", n);
  rep.add("serve.ack_s_p50", median(ack), "s", n);
  rep.add("serve.ack_s_p90", median(ack, 90.0), "s", n);
  rep.add("serve.wait_s_p50", median(wait), "s", n);
  rep.add("serve.status_s_p50", median(status_s), "s", status_s.size());
  rep.add("serve.status_s_p95", median(status_s, 95.0), "s", status_s.size());
  rep.add("serve.rejected_frac", share(static_cast<double>(rejected), static_cast<double>(submitted)),
          "frac", submitted);
  const util::JsonValue* sched = status.find("scheduler");
  if (!sched) throw std::runtime_error("bench_e2e: status without a scheduler section");
  batch::EnginePool::Stats pool;
  batch::PlanCache::Stats plans;
  pool.engine_hits = sched->find("pool")->get_int("engine_hits", 0);
  pool.engine_builds = sched->find("pool")->get_int("engine_builds", 0);
  plans.hits = sched->find("plans")->get_int("hits", 0);
  plans.misses = sched->find("plans")->get_int("misses", 0);
  report_batch(rep, jobs, window_s, static_cast<int>(sched->get_int("executors", 1)), pool,
               plans);
  const std::string spec = jobs.ok.empty() ? "" : jobs.ok.front().engine_spec;
  const int job_threads = jobs.ok.empty() ? kThreads : jobs.ok.front().threads;
  rep.note("engine_spec", spec);
  rep.note("kernel_isa", jobs.stats.kernel_isa);
  const Request picked = ok.at(static_cast<std::size_t>(in.rng.below(ok.size())));
  return [=, &in](Report& r, double triad_gbps) {
    // The picked request re-runs in-process through batch::run_sweep on a
    // 1-thread naive engine, which doubles as the single-thread baseline.
    batch::SweepConfig sc = serve::to_sweep_config(
        serve::parse_sweep_spec(request_spec(picked.lambdas, kRequestSteps, "naive") +
                                ";threads=1"),
        in.scene);
    sc.scheduler.concurrency = 1;
    const batch::SweepResult ref = batch::run_sweep(sc);
    std::vector<double> naive1;
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
      const Observables got = observables_of(picked.results.at(i));
      const Observables want = observables_of(ref.results[i]);
      naive1.push_back(ref.results[i].stats.mlups);
      r.check("serve_clients job " + std::to_string(i) + " == in-process naive run_sweep",
              ref.results[i].ok && got == want, describe(got, want));
    }
    report_exec(r, jobs.stats, job_threads, stage1_model(spec, kRequestGrid, job_threads),
                true, median(naive1), triad_gbps, jobs.ok.size());
    report_dist(r, jobs.stats, jobs.ok.size());
  };
}

// ----------------------------------------------------------------- probes

/// The row kernel on L2-resident operands: ns per complex cell of
/// kernels::update_row on a 1024-cell row (160 KiB of operands), one
/// thread, median of 15 batches of about 10 ms.
double row_ns_per_cell(util::Xoshiro256& rng) {
  OBS_SPAN("bench.kernels.update_row");
  constexpr int n = 1024;
  constexpr int kCalls = 4000;
  const auto fill = [&](std::vector<double>& v, double lo, double hi) {
    for (double& x : v) x = rng.uniform(lo, hi);
  };
  std::vector<double> x(2 * n), t(2 * n), c(2 * n), src(2 * n), a(6 * n), b(6 * n);
  fill(x, -1.0, 1.0);
  fill(t, 0.3, 0.6);  // |t| < 1 keeps the repeated update bounded
  fill(c, 0.0, 0.2);
  fill(src, -0.1, 0.1);
  fill(a, -1.0, 1.0);
  fill(b, -1.0, 1.0);
  kernels::RowArgs args;
  args.x = x.data();
  args.t = t.data();
  args.c = c.data();
  args.src = src.data();
  args.a = a.data() + 2 * n;
  args.b = b.data() + 2 * n;
  args.shift = -n;
  args.ds = 1.0;
  args.n = n;
  std::vector<double> ns;
  for (int rep = 0; rep < 15; ++rep) {
    util::Timer timer;
    for (int i = 0; i < kCalls; ++i) kernels::update_row(args);
    ns.push_back(timer.seconds() * 1e9 / (static_cast<double>(kCalls) * n));
  }
  if (!std::isfinite(x[0])) throw std::runtime_error("bench_e2e: row probe diverged");
  return median(ns);
}

/// STREAM triad a = b + s*c on kThreads threads over three arrays that
/// together span 4x the LLC, so every pass streams from DRAM.  GB/s counts
/// 24 bytes per element (the STREAM convention); median of 5 passes.
double triad_gbps(std::size_t llc_bytes) {
  OBS_SPAN("bench.kernels.triad");
  const std::size_t n = 4 * llc_bytes / (3 * sizeof(double));
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const auto parallel = [n](const std::function<void(std::size_t, std::size_t)>& body) {
    std::vector<std::thread> team;
    for (int t = 0; t < kThreads; ++t) {
      team.emplace_back(body, n * t / kThreads, n * (t + 1) / kThreads);
    }
    for (std::thread& t : team) t.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {  // first touch, same partition
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  std::vector<double> gbps;
  for (int pass = 0; pass < 5; ++pass) {
    util::Timer timer;
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    gbps.push_back(24.0 * static_cast<double>(n) / timer.seconds() / 1e9);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("bench_e2e: triad probe gave a wrong result");
  return median(gbps);
}

// ------------------------------------------------------------------ main

Finish run_workload(const std::string& name, Inputs& in, double seconds, Report& rep) {
  if (name == "solve_large") return solve_large(in, seconds, rep);
  if (name == "sweep_cells") return sweep_cells(in, seconds, rep);
  if (name == "serve_clients") return serve_clients(in, seconds, rep);
  if (name == "sharded_ckpt") return sharded_ckpt(in, seconds, rep);
  throw std::invalid_argument("bench_e2e: unknown workload \"" + name +
                              "\" (solve_large|sweep_cells|serve_clients|sharded_ckpt)");
}

/// Chrome trace JSON plus an otherData member with the tracer's own
/// counters, which bench/e2e/trace_summary.py checks.
bool write_trace(const std::string& path, const obs::TraceStats& stats) {
  std::string json = obs::chrome_trace_json();
  json.pop_back();  // the closing brace of {"traceEvents":[...]}
  json += ",\"otherData\":{\"events\":" + std::to_string(stats.events) +
          ",\"dropped\":" + std::to_string(stats.dropped) +
          ",\"nesting_ok\":" + (stats.nesting_ok ? "true" : "false") + "}}";
  std::ofstream out(path, std::ios::binary);
  out << json;
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold whenever a mapped block is freed, so
  // whether a large array got a mapping of its own or came from a cached
  // heap, and with it the page faults of a set-up and the peak RSS,
  // depended on the order of earlier frees: the daemon's peak ranged from
  // 31 to 45 MB over runs.  Pinned at glibc's default of 128 KiB, every
  // large array is a mapping of its own that returns to the OS when freed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  util::Cli cli;
  cli.add_flag("workload", "solve_large | sweep_cells | serve_clients | sharded_ckpt", "");
  cli.add_flag("seed", "seed every input is generated from", "1");
  cli.add_flag("seconds", "length of the timed window", "10");
  cli.add_flag("out", "result JSON path", "bench_e2e_result.json");
  cli.add_flag("trace-out", "arm span tracing and write the Chrome trace here", "");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "bench_e2e: %s\n", cli.error().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::fputs(cli.help_text("bench_e2e").c_str(), stdout);
    return 0;
  }
  if (kUnfitBuild != nullptr) {
    std::fprintf(stderr, "bench_e2e: refusing to measure: %s; build with "
                         "CMAKE_BUILD_TYPE=Release and no sanitizer\n", kUnfitBuild);
    return 2;
  }
  const std::string workload = cli.get("workload", "");
  const long seed = cli.get_int("seed", 1);
  const double seconds = cli.get_double("seconds", 10.0);
  const std::string trace_path = cli.get("trace-out", "");
  if (seed < 0 || !(seconds > 0.0)) {
    std::fprintf(stderr, "bench_e2e: --seed must be >= 0 and --seconds > 0\n");
    return 2;
  }

  try {
    Inputs in(static_cast<std::uint64_t>(seed));
    Report rep;
    if (!trace_path.empty()) {
      // Small rings: the sharded engine starts fresh thread teams every
      // run, and every thread that records gets its own ring.
      obs::TraceConfig tc;
      tc.ring_capacity = 16384;
      obs::start_tracing(tc);
    }
    const Finish finish = run_workload(workload, in, seconds, rep);
    const util::HostInfo host = util::detect_host();
    rep.add("kernels.row_ns_per_cell", row_ns_per_cell(in.rng), "ns");
    const double triad = triad_gbps(host.l3_bytes);
    rep.add("kernels.triad_gbps", triad, "GB/s");
    if (!trace_path.empty()) {
      obs::stop_tracing();
      const obs::TraceStats stats = obs::trace_stats();
      if (!write_trace(trace_path, stats)) {
        throw std::runtime_error("bench_e2e: cannot write " + trace_path);
      }
      rep.add("obs.dropped_events", static_cast<double>(stats.dropped), "count");
    }
    finish(rep, triad);

    rep.note("workload", workload);
    rep.note("seed", static_cast<double>(seed));
    rep.note("seconds", seconds);
    rep.note("traced", trace_path.empty() ? "no" : "yes");
    rep.note("compiler", kCompiler);
    rep.note("build_type", EMWD_BENCH_BUILD_TYPE);
    rep.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
    rep.note("llc_bytes", static_cast<double>(host.l3_bytes));
    rep.note("cpu_model", host.cpu_model);
    rep.note("triad_gbps", triad);
    rep.note("triad_array_bytes", static_cast<double>(4 * host.l3_bytes / 3));

    std::ofstream out(cli.get("out", ""), std::ios::binary);
    out << rep.to_json() << '\n';
    if (!out.flush()) throw std::runtime_error("bench_e2e: cannot write the result");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  return 0;
}
