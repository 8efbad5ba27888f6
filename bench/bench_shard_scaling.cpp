// Shard-scaling study for the dist/ subsystem.
//
// Aggregate MLUP/s vs. z-shard count for naive and MWD inner engines, on
// one grid with a thread budget split across shards (every shard keeps at
// least one thread, so K > --threads oversubscribes; the threads/shard
// column records what each row actually ran).  One row per (inner, K,
// transport): the halo wait/hidden/exposed columns show how much of the
// post/wait exchange stays on the critical path, and the `isa` column
// records the row-kernel dispatch so a SIMD fallback is visible.  On a
// single-socket host this mostly measures the decomposition overhead; on a
// multi-socket host the NUMA-local shard placement turns it into a
// socket-scaling study.
//
// Engines are built from spec strings through the EngineRegistry — the
// sweep axes (shards, interval, transport) compose a
// `sharded(shards=K,...,inner=<spec>)` spec per point; the unified
// --engine flag overrides the default naive/mwd inner pair.
//
// --csv writes the table for .github/check_shard_smoke.py; --json writes a
// machine-readable record of the same rows.
#include "common.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>

#include "dist/numa.hpp"
#include "em/coefficients.hpp"
#include "grid/fieldset.hpp"
#include "io/snapshot.hpp"
#include "kernels/update.hpp"
#include "util/timer.hpp"
#include "util/trace_cli.hpp"

namespace {

using namespace emwd;

struct RowResult {
  exec::EngineStats stats;   // the best-wall-time repeat
  double seconds = 0.0;      // its wall time
  double halo_wait = 0.0;    // halo-stall columns: the minimum-exposed repeat —
  double halo_hidden = 0.0;  // the floor reflects the protocol's structure,
  double halo_exposed = 0.0; // spikes reflect the host scheduler
  io::SnapshotWriter::Stats ckpt;  // cumulative over repeats (--checkpoint-every)
};

/// Warmup outside the timed region (the sharded engine's first run also
/// allocates its shard state), then the best of `repeats` timed runs (the
/// tuner's stage-2 methodology).  Each repeat's clear_fields() lets go of
/// the shard sets a sharded run left the set split onto, so each repeat
/// scatters once, in its first run; its later segments run on the shard
/// sets in place.  With ckpt_every > 0 the run checkpoints to `ckpt_path`
/// through the async SnapshotWriter, which reads the split set's rows from
/// the shards, and the `seconds` column becomes wall time around
/// exec::run_segmented — capture stalls included, so diffing a checkpointed
/// run against a plain one measures exactly the overhead the <5%
/// acceptance gate is about (background write time is drained between
/// repeats, outside the timed region).
RowResult run_point(const exec::EngineSpec& spec, const grid::Layout& layout,
                    int threads, int steps, int repeats, unsigned seed,
                    int ckpt_every, const std::string& ckpt_path) {
  grid::FieldSet fs(layout);
  em::build_random_stable(fs, seed);
  exec::BuildContext ctx;
  ctx.grid = layout.interior();
  ctx.threads = threads;  // the --threads budget (inner=auto tunes against it)
  auto engine = exec::EngineRegistry::global().build(spec, ctx);
  engine->run(fs, std::min(steps, 2));  // warmup: fault pages in, warm caches

  std::unique_ptr<io::SnapshotWriter> writer;
  if (ckpt_every > 0) writer = std::make_unique<io::SnapshotWriter>(layout);
  const auto capture = [&](int done) {
    io::SnapshotInfo info;
    info.extents = layout.interior();
    info.steps_done = done;
    info.meta = exec::to_string(spec);
    writer->capture(fs, info, ckpt_path);
    return true;
  };

  RowResult best;
  best.seconds = 1e300;
  best.halo_exposed = 1e300;
  for (int r = 0; r < std::max(1, repeats); ++r) {
    fs.clear_fields();
    exec::EngineStats st;
    util::Timer timer;
    exec::run_segmented(*engine, fs, steps, ckpt_every, capture, st);
    double wall = st.seconds;
    if (writer) {
      wall = timer.seconds();
      writer->wait_idle();  // drain before the next repeat competes for cores
    }
    if (wall < best.seconds) {
      best.stats = st;
      best.seconds = wall;
    }
    if (st.halo_exposed_seconds() < best.halo_exposed) {
      best.halo_wait = st.halo_wait_seconds;
      best.halo_hidden = st.halo_hidden_seconds;
      best.halo_exposed = st.halo_exposed_seconds();
    }
  }
  if (writer) best.ckpt = writer->stats();
  return best;
}

std::string json_escape_free(double v) { return util::fmt_double(v, 9); }

}  // namespace

int main(int argc, char** argv) {
  using namespace emwd::bench;

  util::Cli cli;
  cli.add_flag("nx", "grid extent x", "48");
  cli.add_flag("ny", "grid extent y", "48");
  cli.add_flag("nz", "grid extent z (the sharded dimension)", "96");
  cli.add_flag("steps", "time steps per run", "8");
  cli.add_flag("threads", "total thread budget, split across shards", "2");
  cli.add_flag("shards", "shard counts to sweep", "1,2,4");
  cli.add_flag("interval", "steps between halo exchanges", "1");
  cli.add_flag("repeats", "timed repeats per point (best wins)", "3");
  cli.add_flag("numa", "bind shards to NUMA nodes", "true");
  cli.add_flag("transports", "halo transports to sweep (comma-separated)", "local");
  emwd::bench::add_engine_flag(cli, "");  // inner spec; empty = naive AND mwd
  cli.add_flag("checkpoint-every", "snapshot every N steps (async writer)", "0");
  cli.add_flag("checkpoint-dir", "directory for the snapshot files", "");
  cli.add_flag("csv", "also write the table as CSV to this file", "");
  cli.add_flag("json", "write the rows as a JSON record to this file", "");
  util::add_trace_flags(cli);
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.help_text("bench_shard_scaling").c_str());
    return 0;
  }
  util::TraceFromCli trace(cli);  // --trace FILE: exported at exit
  const int nx = static_cast<int>(cli.get_int("nx", 48));
  const int ny = static_cast<int>(cli.get_int("ny", 48));
  const int nz = static_cast<int>(cli.get_int("nz", 96));
  const int steps = static_cast<int>(cli.get_int("steps", 8));
  const int threads = static_cast<int>(cli.get_int("threads", 2));
  const int interval = static_cast<int>(cli.get_int("interval", 1));
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  const bool numa = cli.get_bool("numa", true);
  const int ckpt_every = static_cast<int>(cli.get_int("checkpoint-every", 0));
  const std::string ckpt_dir = cli.get("checkpoint-dir", "");
  if (ckpt_every > 0 && ckpt_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-every requires --checkpoint-dir\n");
    return 1;
  }
  const std::vector<long> shard_counts = cli.get_int_list("shards", {1, 2, 4});
  // Halo transports to sweep: one row per (inner, K, transport), so the
  // CSV/JSON quantify the transport's cost against in-process "local".
  std::vector<std::string> transports;
  {
    std::string list = cli.get("transports", "local");
    std::size_t pos = 0;
    while (pos != std::string::npos) {
      const std::size_t comma = list.find(',', pos);
      const std::string name = list.substr(pos, comma == std::string::npos
                                                    ? std::string::npos
                                                    : comma - pos);
      if (!name.empty()) transports.push_back(name);
      pos = comma == std::string::npos ? comma : comma + 1;
    }
    if (transports.empty()) transports.push_back("local");
  }
  // The sweep's inner engines: the unified --engine spec when given, else
  // the naive/mwd pair the smoke gates compare.
  std::vector<std::string> inners;
  if (cli.get("engine").empty()) {
    inners = {"naive", "mwd"};
  } else {
    inners = {exec::to_string(emwd::bench::engine_spec_from_cli(cli))};
  }

  banner("bench_shard_scaling",
         "dist/ subsystem: aggregate MLUP/s vs. z-shard count per halo transport");
  const dist::NumaTopology topo = dist::NumaTopology::detect();
  std::printf("host: %d NUMA node(s), %d thread budget, grid %dx%dx%d, "
              "exchange interval %d, kernel_isa %s\n\n",
              topo.num_nodes, threads, nx, ny, nz, interval,
              kernels::row_isa());

  const grid::Layout layout({nx, ny, nz});
  const std::int64_t useful =
      static_cast<std::int64_t>(layout.interior().cells()) * steps;

  util::Table t({"inner", "shards", "threads/shard", "MLUP/s", "vs K=1",
                 "halo MB/exchg", "halo s (thread)", "redundant LUP %", "seconds",
                 "halo wait s", "halo hidden s", "halo exposed s",
                 "transport", "staged MB", "halo stage s", "halo unstage s", "isa"});
  std::string json_rows;
  io::SnapshotWriter::Stats ckpt_totals;
  for (const std::string& inner : inners) {
    double base_mlups = 0.0;
    for (long k : shard_counts) {
      for (const std::string& transport : transports) {
        // One shard exchanges nothing: its row would repeat per transport.
        if (k <= 1 && transport != transports.front()) continue;
        const int tps = std::max(1, threads / std::max(1, static_cast<int>(k)));
        const exec::EngineSpec inner_spec = exec::parse_engine_spec(inner);
        exec::EngineSpec spec;
        spec.kind = "sharded";
        spec.add("shards", k).add("interval", static_cast<long>(interval));
        if (transport != "local") spec.add("transport", transport);
        // Pin the per-shard budget (K > threads oversubscribes on purpose)
        // — except for inner=auto, where the tuner derives it.
        if (inner_spec.kind != "auto") spec.add("tps", static_cast<long>(tps));
        if (!numa) spec.add("numa", std::string("0"));
        spec.add("inner", inner_spec);

        RowResult r;
        try {
          const std::string ckpt_path =
              ckpt_every > 0 ? ckpt_dir + "/bench_" + inner + "_k" +
                                   std::to_string(k) + "_" + transport + ".ckpt"
                             : std::string();
          r = run_point(spec, layout, threads, steps, repeats,
                        0x5eedu + static_cast<unsigned>(k), ckpt_every, ckpt_path);
        } catch (const std::invalid_argument& e) {
          std::fprintf(stderr, "bad --engine: %s\n", e.what());
          return 2;
        }
        const exec::EngineStats& st = r.stats;

        if (st.shards == 1 && transport == transports.front()) base_mlups = st.mlups;
        const double redundant_pct =
            useful > 0 ? 100.0 * static_cast<double>(st.lups - useful) /
                             static_cast<double>(useful)
                       : 0.0;
        const double halo_mb_per_exchange =
            st.halo_bytes_moved > 0 && steps > interval
                ? static_cast<double>(st.halo_bytes_moved) /
                      (1024.0 * 1024.0 * static_cast<double>((steps - 1) / interval))
                : 0.0;
        t.add_row({inner, std::to_string(st.shards), std::to_string(tps),
                   util::fmt_double(st.mlups, 4),
                   base_mlups > 0 ? util::fmt_double(st.mlups / base_mlups, 3) : "-",
                   util::fmt_double(halo_mb_per_exchange, 3),
                   util::fmt_double(st.halo_exchange_seconds, 3),
                   util::fmt_double(redundant_pct, 3), util::fmt_double(r.seconds, 6),
                   util::fmt_double(r.halo_wait, 6),
                   util::fmt_double(r.halo_hidden, 6),
                   util::fmt_double(r.halo_exposed, 6), transport,
                   util::fmt_double(
                       static_cast<double>(st.halo_staged_bytes) / (1024.0 * 1024.0), 3),
                   util::fmt_double(st.halo_stage_seconds, 6),
                   util::fmt_double(st.halo_unstage_seconds, 6), st.kernel_isa});

        ckpt_totals.captured += r.ckpt.captured;
        ckpt_totals.written += r.ckpt.written;
        ckpt_totals.bytes_written += r.ckpt.bytes_written;
        ckpt_totals.capture_seconds += r.ckpt.capture_seconds;
        ckpt_totals.blocked_seconds += r.ckpt.blocked_seconds;
        ckpt_totals.write_seconds += r.ckpt.write_seconds;
        ckpt_totals.staging_buffers =
            std::max(ckpt_totals.staging_buffers, r.ckpt.staging_buffers);

        // exposed = wait + copy - hidden, so hidden + exposed = wait + copy
        // (the full halo handling on the shard threads).
        const double halo_total = r.halo_hidden + r.halo_exposed;
        const double hidden_fraction = halo_total > 0.0 ? r.halo_hidden / halo_total : 0.0;
        // Engine-derived fields ride in the canonical EngineStats::to_json
        // object (shards, mlups, the halo byte/time family, the
        // transport and isa); only the bench's own axes and the
        // min-exposed-repeat halo columns stay hand-rolled.
        if (!json_rows.empty()) json_rows += ",\n";
        json_rows += std::string("    {\"inner\": \"") + inner +
                     "\", \"threads_per_shard\": " + std::to_string(tps) +
                     ", \"wall_seconds\": " + json_escape_free(r.seconds) +
                     ", \"halo_wait_s\": " + json_escape_free(r.halo_wait) +
                     ", \"halo_hidden_s\": " + json_escape_free(r.halo_hidden) +
                     ", \"halo_exposed_s\": " + json_escape_free(r.halo_exposed) +
                     ", \"hidden_fraction\": " + json_escape_free(hidden_fraction) +
                     ", \"transport\": \"" + transport + "\"" +
                     ", \"stats\": " + st.to_json() + '}';
      }
    }
  }
  t.print(std::cout, "shard scaling (" + std::to_string(steps) + " steps, best of " +
                         std::to_string(repeats) + ")");
  if (ckpt_every > 0) {
    std::printf(
        "checkpointing every %d steps: %lld snapshot(s), %.1f MiB written, "
        "engine stalled %.4f s in capture (%.4f s of that waiting for a "
        "buffer), %.4f s background write, at most %d staging buffer(s) per "
        "writer (2 = the writer fell behind)\n",
        ckpt_every, static_cast<long long>(ckpt_totals.captured),
        static_cast<double>(ckpt_totals.bytes_written) / (1024.0 * 1024.0),
        ckpt_totals.capture_seconds, ckpt_totals.blocked_seconds,
        ckpt_totals.write_seconds, ckpt_totals.staging_buffers);
  }
  const std::string csv_path = cli.get("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << t.to_csv();
    if (!out) {
      std::fprintf(stderr, "FAIL: could not write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  const std::string json_path = cli.get("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"bench_shard_scaling\",\n"
        << "  \"grid\": {\"nx\": " << nx << ", \"ny\": " << ny << ", \"nz\": " << nz
        << "},\n  \"steps\": " << steps << ",\n  \"threads\": " << threads
        << ",\n  \"exchange_interval\": " << interval << ",\n  \"repeats\": " << repeats
        << ",\n  \"kernel_isa\": \"" << kernels::row_isa() << '"'
        << ",\n  \"rows\": [\n" << json_rows << "\n  ]\n}\n";
    if (!out) {
      std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
