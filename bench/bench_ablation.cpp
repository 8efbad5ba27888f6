// Ablation studies of three design choices of the MWD engine:
//
//  A. tile scheduling — the paper's dynamic FIFO queue (Sec. II-A) vs a
//     static wavefront-synchronous assignment (global barrier per wave);
//  B. intra-tile parallelization dimension — splitting the same thread
//     group along x vs z vs field components vs mixed (the paper's
//     multi-dimensional contribution is that the *choice* matters);
//  C. temporal blocking depth — diamond width sweep at fixed resources,
//     showing the Eq. 12 traffic curve against the cache-fit limit.
//
// Wall-clock numbers are real executions on this host (oversubscribed if
// threads > cores); traffic numbers come from the cache simulator.
#include "common.hpp"

#include "em/coefficients.hpp"
#include "grid/fieldset.hpp"

int main(int argc, char** argv) {
  using namespace emwd;
  using namespace emwd::bench;

  util::Cli cli;
  cli.add_flag("n", "cubic grid size", "40");
  cli.add_flag("steps", "time steps per measurement", "4");
  cli.add_flag("threads", "worker threads", "4");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  const int n = static_cast<int>(cli.get_int("n", 40));
  const int steps = static_cast<int>(cli.get_int("steps", 4));
  const int threads = static_cast<int>(cli.get_int("threads", 4));

  banner("bench_ablation", "design-choice ablations (scheduler, split dims, Dw)");

  grid::Layout L({n, n, n});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 9);

  auto time_mwd = [&](exec::MwdParams p) {
    auto eng = exec::make_mwd_engine(p);
    fs.clear_fields();
    eng->run(fs, steps);  // warm-up + data touch
    fs.clear_fields();
    eng->run(fs, steps);
    return eng->stats();
  };

  // --- A: FIFO queue vs static wavefront schedule -------------------------
  {
    util::Table t({"schedule", "params", "MLUP/s", "tiles", "TG barriers",
                   "queue wait s", "barrier wait s"});
    for (auto sched : {exec::TileSchedule::FifoQueue, exec::TileSchedule::StaticWave}) {
      exec::MwdParams p;
      p.dw = 4;
      p.bz = 2;
      p.num_tgs = threads;  // 1WD-style: scheduling pressure is highest
      p.schedule = sched;
      const auto st = time_mwd(p);
      t.add_row({sched == exec::TileSchedule::FifoQueue ? "fifo" : "static-wave",
                 p.describe(), util::fmt_double(st.mlups, 4),
                 std::to_string(st.tiles_executed),
                 std::to_string(st.barrier_episodes),
                 util::fmt_double(st.queue_wait_seconds, 3),
                 util::fmt_double(st.barrier_wait_seconds, 3)});
    }
    t.print(std::cout, "A: dynamic FIFO vs static wavefront scheduling");
  }

  // --- D: private-L2 + shared-LLC two-level replay (FED justification) ----
  {
    util::Table t({"private KiB/group", "L2->LLC B/LUP", "DRAM B/LUP"});
    exec::MwdParams p;
    p.dw = 4;
    p.bz = 2;
    p.num_tgs = std::max(2, threads);
    for (std::uint64_t priv_kib : {64u, 256u, 1024u}) {
      const auto r = cachesim::replay_mwd_private(grid::Layout({n, n, n}), steps, p,
                                                  priv_kib << 10,
                                                  scaled_haswell().llc_bytes);
      t.add_row({std::to_string(priv_kib), util::fmt_double(r.llc_bytes_per_lup(), 5),
                 util::fmt_double(r.dram_bytes_per_lup(), 5)});
    }
    t.print(std::cout,
            "D: private caches absorb in-tile reuse (two-level replay)");
  }

  // --- E: diamond+wavefront vs wavefront-only temporal blocking -----------
  {
    util::Table t({"engine", "name", "MLUP/s"});
    exec::MwdParams p;
    p.dw = 4;
    p.bz = 2;
    p.tc = std::min(threads, 3);
    p.tx = threads / p.tc;
    if (p.tx < 1) p.tx = 1;
    while (p.tx * p.tc > threads) --p.tx;
    if (p.tx * p.tc != threads) {
      p = exec::MwdParams{};
      p.dw = 4;
      p.bz = 2;
      p.num_tgs = threads;
    }
    const auto mwd_st = time_mwd(p);
    t.add_row({"diamond+wavefront", p.describe(), util::fmt_double(mwd_st.mlups, 4)});

    exec::WavefrontParams wp;
    wp.bz = 2;
    wp.tc = (threads == 2 || threads == 3 || threads == 6) ? threads : 1;
    wp.tx = threads / wp.tc;
    auto wf = exec::make_wavefront_engine(wp, {n, n, n}, /*max_steps_per_block=*/4);
    fs.clear_fields();
    wf->run(fs, steps);
    t.add_row({"wavefront-only (ref. [21])", wf->name(),
               util::fmt_double(wf->stats().mlups, 4)});
    t.print(std::cout, "E: diamond tiling vs plain multicore wavefront");
  }

  // --- B: intra-tile split dimension at fixed TG size ---------------------
  {
    util::Table t({"split", "params", "MLUP/s"});
    struct Shape {
      const char* name;
      int tx, tz, tc, bz;
    };
    const int tg = threads;  // one group of `threads`
    std::vector<Shape> shapes;
    shapes.push_back({"along x", tg, 1, 1, 2});
    shapes.push_back({"along z", 1, tg, 1, std::max(2, tg)});
    if (tg == 2 || tg == 3 || tg == 6) shapes.push_back({"components", 1, 1, tg, 2});
    if (tg % 2 == 0 && tg / 2 <= 6 && (tg / 2 == 1 || tg / 2 == 2 || tg / 2 == 3 || tg / 2 == 6)) {
      shapes.push_back({"x * components", 2, 1, tg / 2, 2});
    }
    for (const Shape& s : shapes) {
      exec::MwdParams p;
      p.dw = 4;
      p.bz = s.bz;
      p.tx = s.tx;
      p.tz = s.tz;
      p.tc = s.tc;
      p.num_tgs = 1;
      const auto st = time_mwd(p);
      t.add_row({s.name, p.describe(), util::fmt_double(st.mlups, 4)});
    }
    t.print(std::cout, "B: intra-tile parallelization dimension (1 TG)");
  }

  // --- C: diamond width sweep: model + measured traffic + real time -------
  {
    util::Table t({"Dw", "Cs MiB (Eq.11)", "BC model (Eq.12)", "BC cache-sim",
                   "real MLUP/s"});
    const models::Machine cache_machine = scaled_haswell();
    for (int dw : {1, 2, 4, 8, 16}) {
      exec::MwdParams p;
      p.dw = dw;
      p.bz = 2;
      const double cs = models::cache_block_bytes(dw, 2, n) / 1048576.0;
      const double bc_meas =
          measured_mwd_bpl({n, n, n}, p, cache_machine.llc_bytes, steps);
      const auto st = time_mwd(p);
      t.add_row({std::to_string(dw), util::fmt_double(cs, 4),
                 util::fmt_double(models::diamond_bytes_per_lup(dw), 5),
                 util::fmt_double(bc_meas, 5), util::fmt_double(st.mlups, 4)});
    }
    t.print(std::cout, "C: temporal blocking depth (scaled-haswell LLC)");
  }
  return 0;
}
