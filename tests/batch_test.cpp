// Batch subsystem tests — the contract of src/batch/README.md:
//   * scheduling is placement-only: N jobs through the Scheduler at any
//     concurrency are bit-exact with the sequential loop over the same
//     configs (and with standalone thiim::Simulation runs);
//   * the EnginePool / PlanCache demonstrably skip re-preparation and
//     re-tuning on repeated grid shapes (counted in stats);
//   * cancel() starts no further job after it returns and the queue drains
//     deadlock-free;
//   * ResourceManager partitions the machine into disjoint NUMA-pure slots.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batch/engine_pool.hpp"
#include "io/snapshot.hpp"
#include "batch/job.hpp"
#include "batch/resource.hpp"
#include "batch/scheduler.hpp"
#include "batch/sweep.hpp"
#include "em/geometry.hpp"
#include "fault/inject.hpp"
#include "thiim/simulation.hpp"
#include "tune/autotuner.hpp"

namespace {

using namespace emwd;

// ---------------------------------------------------------------- helpers

util::HostInfo fake_host(const std::vector<std::vector<int>>& node_cpus) {
  util::HostInfo host;
  host.numa_node_cpus = node_cpus;
  host.num_numa_nodes = static_cast<int>(node_cpus.size());
  host.logical_cpus = 0;
  for (const auto& n : node_cpus) host.logical_cpus += static_cast<int>(n.size());
  return host;
}

/// A tiny but physical job: layered absorber + plane wave on a small grid.
void paint_scene(thiim::Simulation& sim, const batch::Job&) {
  auto& mats = sim.materials();
  const auto ag = mats.add(em::silver());
  const auto asi = mats.add(em::amorphous_silicon());
  const int nz = sim.fields().layout().interior().nz;
  em::GeometryBuilder g(mats);
  g.layer(ag, 0, nz / 8);
  g.layer(asi, nz / 8, nz / 2);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, nz - 4, {1.0, 0.0});
}

thiim::SimulationConfig scene_config(double lambda, const std::string& spec) {
  thiim::SimulationConfig cfg;
  cfg.grid = {10, 10, 16};
  cfg.wavelength_cells = lambda;
  cfg.pml.thickness = 3;
  cfg.engine_spec = spec;
  cfg.threads = 2;  // pinned so every execution path sizes identically
  return cfg;
}

struct Observables {
  double total_energy = 0.0;
  double electric_energy = 0.0;
  std::vector<double> absorption;
};

/// The sequential-loop reference: a standalone Simulation per config.
Observables run_standalone(const thiim::SimulationConfig& cfg, int steps) {
  thiim::Simulation sim(cfg);
  batch::Job dummy;
  paint_scene(sim, dummy);
  sim.run(steps);
  return {sim.total_energy(), sim.electric_energy(), sim.absorption_by_material()};
}

// ----------------------------------------------------------- ResourceManager

TEST(ResourceManager, DefaultsToOneSlotPerNumaNode) {
  batch::ResourceManager rm(fake_host({{0, 1, 2, 3}, {4, 5, 6, 7}}), 0);
  ASSERT_EQ(rm.num_slots(), 2);
  EXPECT_EQ(rm.slot(0).cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rm.slot(1).cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(rm.slot(0).numa_node, 0);
  EXPECT_EQ(rm.slot(1).numa_node, 1);
}

TEST(ResourceManager, MergesNodesWhenFewerSlotsRequested) {
  batch::ResourceManager rm(fake_host({{0, 1}, {2, 3}, {4, 5}, {6, 7}}), 2);
  ASSERT_EQ(rm.num_slots(), 2);
  EXPECT_EQ(rm.slot(0).cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(rm.slot(1).cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(ResourceManager, SplitsNodesNumaPureWhenMoreSlotsRequested) {
  batch::ResourceManager rm(fake_host({{0, 1, 2, 3}, {4, 5, 6, 7}}), 4);
  ASSERT_EQ(rm.num_slots(), 4);
  for (const batch::Slot& s : rm.slots()) {
    EXPECT_EQ(s.cpus.size(), 2u) << "slot " << s.id;
    // NUMA purity: all cpus of a slot from one node.
    for (int c : s.cpus) EXPECT_EQ(c / 4, s.numa_node) << "slot " << s.id;
  }
}

TEST(ResourceManager, SlotsAreDisjointAndCoverNoCpuTwice) {
  for (int want : {0, 1, 2, 3, 5, 8, 64}) {
    batch::ResourceManager rm(fake_host({{0, 1, 2}, {3, 4, 5, 6}}), want);
    std::set<int> seen;
    for (const batch::Slot& s : rm.slots()) {
      EXPECT_FALSE(s.cpus.empty()) << "want=" << want;
      for (int c : s.cpus) {
        EXPECT_TRUE(seen.insert(c).second) << "cpu " << c << " twice, want=" << want;
      }
    }
    EXPECT_LE(rm.num_slots(), 7) << "more slots than cpus, want=" << want;
    EXPECT_GE(rm.num_slots(), 1);
  }
}

TEST(ResourceManager, UnevenSplitKeepsEverySlotNonEmpty) {
  batch::ResourceManager rm(fake_host({{0, 1, 2}}), 2);
  ASSERT_EQ(rm.num_slots(), 2);
  EXPECT_EQ(rm.slot(0).cpus.size() + rm.slot(1).cpus.size(), 3u);
  EXPECT_FALSE(rm.slot(0).cpus.empty());
  EXPECT_FALSE(rm.slot(1).cpus.empty());
}

// ------------------------------------------------------- EnginePool / cache

TEST(EnginePool, ReusesReleasedEnginesByKey) {
  batch::EnginePool pool;
  exec::BuildContext ctx;
  ctx.grid = {8, 8, 8};
  ctx.threads = 1;
  const exec::EngineSpec spec = exec::parse_engine_spec("naive");

  auto lease1 = pool.acquire_engine(spec, ctx);
  EXPECT_FALSE(lease1.reused);
  ASSERT_NE(lease1.engine, nullptr);
  // Same key while leased: a second engine is built, never shared.
  auto lease2 = pool.acquire_engine(spec, ctx);
  EXPECT_FALSE(lease2.reused);
  pool.release_engine(std::move(lease1));
  pool.release_engine(std::move(lease2));

  auto lease3 = pool.acquire_engine(spec, ctx);
  EXPECT_TRUE(lease3.reused);
  // A different key (other grid) builds fresh.
  exec::BuildContext other = ctx;
  other.grid = {6, 6, 6};
  auto lease4 = pool.acquire_engine(spec, other);
  EXPECT_FALSE(lease4.reused);

  const batch::EnginePool::Stats st = pool.stats();
  EXPECT_EQ(st.engine_builds, 3);
  EXPECT_EQ(st.engine_hits, 1);
}

TEST(EnginePool, FieldSetsPoolByExtents) {
  batch::EnginePool pool;
  auto f1 = pool.acquire_fields({8, 8, 8});
  EXPECT_FALSE(f1.reused);
  pool.release_fields(std::move(f1));
  auto f2 = pool.acquire_fields({8, 8, 8});
  EXPECT_TRUE(f2.reused);
  auto f3 = pool.acquire_fields({8, 8, 10});
  EXPECT_FALSE(f3.reused);
  EXPECT_EQ(f2.fields->layout().interior(), (grid::Extents{8, 8, 8}));
}

TEST(PlanCache, MemoizesAutoResolutionByShape) {
  batch::PlanCache cache;
  exec::BuildContext ctx;
  ctx.grid = {12, 12, 16};
  ctx.threads = 2;
  const exec::EngineSpec spec = exec::parse_engine_spec("auto");

  bool hit = true;
  const exec::EngineSpec first = cache.resolve(spec, ctx, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(tune::spec_needs_tuning(first)) << exec::to_string(first);

  const exec::EngineSpec second = cache.resolve(spec, ctx, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(exec::to_string(first), exec::to_string(second));

  // A different shape is a different plan entry.
  exec::BuildContext other = ctx;
  other.grid = {12, 12, 24};
  cache.resolve(spec, other, &hit);
  EXPECT_FALSE(hit);

  const batch::PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 2);
  EXPECT_EQ(st.hits, 1);

  // Pinned specs pass through untouched and uncounted.
  const exec::EngineSpec pinned = exec::parse_engine_spec("mwd(dw=4,bz=2)");
  EXPECT_EQ(exec::to_string(cache.resolve(pinned, ctx)), "mwd(dw=4,bz=2)");
  EXPECT_EQ(cache.stats().misses, 2);
}

// ------------------------------------------------------- borrowed-state seam

TEST(BorrowedState, RecycledDirtyFieldSetIsBitExactWithFresh) {
  const thiim::SimulationConfig cfg = scene_config(14.0, "naive");
  const Observables ref = run_standalone(cfg, 12);

  // A FieldSet full of stale garbage in every array (fields, coefficients,
  // sources), plus a separately built engine — the pool's reuse path.
  grid::Layout layout(cfg.grid);
  grid::FieldSet recycled(layout);
  em::build_random_stable(recycled, 99);
  exec::BuildContext ctx;
  ctx.grid = cfg.grid;
  ctx.threads = cfg.threads;
  auto engine = exec::EngineRegistry::global().build("naive", ctx);

  thiim::BorrowedState borrowed;
  borrowed.engine = engine.get();
  borrowed.fields = &recycled;
  thiim::Simulation sim(cfg, borrowed);
  batch::Job dummy;
  paint_scene(sim, dummy);
  sim.run(12);
  EXPECT_EQ(sim.total_energy(), ref.total_energy);
  EXPECT_EQ(sim.electric_energy(), ref.electric_energy);
}

TEST(BorrowedState, MismatchedExtentsThrow) {
  thiim::SimulationConfig cfg = scene_config(14.0, "naive");
  grid::FieldSet wrong((grid::Layout({4, 4, 4})));
  thiim::BorrowedState borrowed;
  borrowed.fields = &wrong;
  EXPECT_THROW(thiim::Simulation(cfg, borrowed), std::invalid_argument);
}

// ------------------------------------------------------------- determinism

TEST(SchedulerDeterminism, ConcurrentExecutionIsBitExactWithSequentialLoop) {
  // Three engine specs x three wavelengths; the sharded spec exercises the
  // decomposed path under the scheduler.
  const std::vector<std::string> specs = {
      "naive", "mwd(dw=3,bz=2)", "sharded(shards=2,interval=2,inner=naive)"};
  const std::vector<double> lambdas = {12.0, 16.0, 24.0};
  const int steps = 8;

  std::vector<thiim::SimulationConfig> configs;
  std::vector<Observables> reference;
  for (double lambda : lambdas) {
    for (const std::string& spec : specs) {
      configs.push_back(scene_config(lambda, spec));
      reference.push_back(run_standalone(configs.back(), steps));
    }
  }

  for (int concurrency : {1, 3}) {
    batch::SchedulerConfig sc;
    sc.concurrency = concurrency;
    sc.pin_slots = false;  // placement must not matter; don't fight CI cgroups
    batch::Scheduler scheduler(sc);
    for (const auto& cfg : configs) {
      batch::Job job;
      job.config = cfg;
      job.steps = steps;
      job.setup = paint_scene;
      scheduler.submit(std::move(job));
    }
    const std::vector<batch::JobResult> results = scheduler.wait_all();
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok) << "K=" << concurrency << " job " << i << ": "
                                 << results[i].error;
      EXPECT_EQ(results[i].index, i);
      EXPECT_EQ(results[i].total_energy, reference[i].total_energy)
          << "K=" << concurrency << " job " << i << " (" << results[i].engine_spec
          << ")";
      EXPECT_EQ(results[i].electric_energy, reference[i].electric_energy);
      ASSERT_EQ(results[i].absorption.size(), reference[i].absorption.size());
      for (std::size_t m = 0; m < reference[i].absorption.size(); ++m) {
        EXPECT_EQ(results[i].absorption[m], reference[i].absorption[m])
            << "K=" << concurrency << " job " << i << " material " << m;
      }
    }
  }
}

TEST(SweepDeterminism, RunSweepMatchesSchedulerAndPreservesAxisOrder) {
  batch::SweepConfig sweep;
  sweep.base = scene_config(12.0, "mwd(dw=2,bz=2)");
  sweep.wavelengths = {12.0, 18.0, 26.0};
  sweep.steps = 6;
  sweep.setup = paint_scene;
  sweep.scheduler.concurrency = 2;
  sweep.scheduler.pin_slots = false;
  const batch::SweepResult swept = batch::run_sweep(sweep);

  ASSERT_EQ(swept.results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    thiim::SimulationConfig cfg = sweep.base;
    cfg.wavelength_cells = sweep.wavelengths[i];
    const Observables ref = run_standalone(cfg, 6);
    EXPECT_EQ(swept.results[i].total_energy, ref.total_energy) << "axis point " << i;
    EXPECT_EQ(swept.results[i].index, i);
  }
  EXPECT_EQ(swept.stats.completed, 3u);
}

// ------------------------------------------------------------ pool effects

TEST(SchedulerPooling, RepeatedShapesSkipRebuildAndRetuning) {
  const int n_jobs = 6;
  batch::SchedulerConfig sc;
  sc.concurrency = 2;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);
  for (int i = 0; i < n_jobs; ++i) {
    batch::Job job;
    // Same shape, same spec: an empty engine_spec is "auto".
    job.config = scene_config(12.0 + i, i % 2 ? "" : "auto");
    job.steps = 4;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
  }
  const auto results = scheduler.wait_all();
  const batch::BatchStats st = scheduler.stats();

  ASSERT_EQ(st.completed, static_cast<std::size_t>(n_jobs));
  // The tuner ran exactly once for the shared (spec, shape, threads) key.
  EXPECT_EQ(st.plans.misses, 1);
  EXPECT_EQ(st.plans.hits, n_jobs - 1);
  // At most one engine/FieldSet pair per concurrent executor was built;
  // everything else was reused from the pool.
  EXPECT_LE(st.pool.engine_builds, 2);
  EXPECT_GE(st.pool.engine_hits, n_jobs - 2);
  EXPECT_LE(st.pool.fields_builds, 2);
  EXPECT_GE(st.pool.fields_hits, n_jobs - 2);
  int reused_jobs = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_FALSE(tune::spec_needs_tuning(exec::parse_engine_spec(r.engine_spec)));
    if (r.engine_reused) ++reused_jobs;
  }
  EXPECT_GE(reused_jobs, n_jobs - 2);
  // Merged engine stats cover every completed job.
  EXPECT_EQ(st.engine.steps, static_cast<std::int64_t>(n_jobs) * 4);
}

TEST(SchedulerPooling, PeriodicThenDirichletJobOnOnePooledSetMatchFreshSets) {
  // A periodic job leaves wrapped partner values in its FieldSet's x halo.
  // The Dirichlet job that recycles the set must read zero ghosts again, so
  // each job matches a standalone Simulation on a fresh set bit for bit.
  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);
  std::vector<thiim::SimulationConfig> configs;
  for (const auto bc : {grid::XBoundary::Periodic, grid::XBoundary::Dirichlet}) {
    configs.push_back(scene_config(14.0, "mwd(dw=3,bz=2)"));
    configs.back().x_boundary = bc;
    batch::Job job;
    job.config = configs.back();
    job.steps = 8;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
  }
  const auto results = scheduler.wait_all();
  EXPECT_EQ(scheduler.stats().pool.fields_hits, 1);
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].error;
    const Observables ref = run_standalone(configs[i], 8);
    EXPECT_EQ(results[i].total_energy, ref.total_energy) << "job " << i;
    EXPECT_EQ(results[i].electric_energy, ref.electric_energy) << "job " << i;
    EXPECT_EQ(results[i].absorption, ref.absorption) << "job " << i;
  }
}

// ------------------------------------------------------------- cancellation

TEST(SchedulerCancel, NoJobStartsAfterCancelReturnsAndQueueDrains) {
  std::promise<void> first_started;
  std::atomic<int> setups_run{0};

  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);

  auto slow_setup = [&](thiim::Simulation& sim, const batch::Job& job) {
    if (setups_run.fetch_add(1) == 0) first_started.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    paint_scene(sim, job);
  };
  for (int i = 0; i < 6; ++i) {
    batch::Job job;
    job.config = scene_config(14.0, "naive");
    job.steps = 2;
    job.setup = slow_setup;
    scheduler.submit(std::move(job));
  }
  // Cancel while job 0 is mid-setup: everything still queued must drain
  // without running, and the already-running job completes normally.
  first_started.get_future().wait();
  scheduler.cancel();
  const int started_at_cancel = setups_run.load();

  const auto results = scheduler.wait_all();  // must not deadlock
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(setups_run.load(), started_at_cancel)
      << "a job started after cancel() returned";
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].cancelled) << "job " << i;
    EXPECT_FALSE(results[i].ok);
  }
  EXPECT_TRUE(results[0].ok) << results[0].error;  // was running; finished
  const batch::BatchStats st = scheduler.stats();
  EXPECT_EQ(st.cancelled, 5u);
  EXPECT_EQ(st.completed + st.failed, 1u);

  // Submissions after cancel() are recorded as cancelled, never run.
  // (Scheduler is still open: wait_all already called, so skip; covered by
  // the construction-order contract test below.)
}

TEST(SchedulerCancel, SubmitAfterCancelIsRecordedCancelled) {
  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);
  scheduler.cancel();
  batch::Job job;
  job.config = scene_config(14.0, "naive");
  job.setup = paint_scene;
  const std::size_t idx = scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[idx].cancelled);
}

TEST(SweepCancel, ProgressReturningFalseCancelsRemainder) {
  batch::SweepConfig sweep;
  sweep.base = scene_config(12.0, "naive");
  for (int i = 0; i < 8; ++i) sweep.wavelengths.push_back(12.0 + i);
  sweep.steps = 2;
  sweep.setup = paint_scene;
  sweep.scheduler.concurrency = 1;
  sweep.scheduler.pin_slots = false;
  sweep.progress = [](const batch::JobResult&, std::size_t, std::size_t) {
    return false;  // cancel after the first finished job
  };
  const batch::SweepResult swept = batch::run_sweep(sweep);
  ASSERT_EQ(swept.results.size(), 8u);
  EXPECT_GE(swept.stats.cancelled, 1u);
  EXPECT_LT(swept.stats.completed, 8u);
  // Every job is accounted for exactly once.
  EXPECT_EQ(swept.stats.completed + swept.stats.failed + swept.stats.cancelled, 8u);
}

// ----------------------------------------------------------------- ordering

TEST(SchedulerPriority, HigherPriorityRunsFirstTiesInSubmissionOrder) {
  std::promise<void> gate_entered;
  std::promise<void> release_gate;
  auto release_future = release_gate.get_future().share();

  std::mutex order_mu;
  std::vector<std::string> order;

  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);
  scheduler.set_progress(
      [&](const batch::JobResult& r, std::size_t, std::size_t) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(r.name);
      });

  batch::Job gate;
  gate.name = "gate";
  gate.config = scene_config(14.0, "naive");
  gate.steps = 1;
  gate.setup = [&](thiim::Simulation& sim, const batch::Job& job) {
    gate_entered.set_value();
    release_future.wait();  // hold the only executor until all jobs queued
    paint_scene(sim, job);
  };
  scheduler.submit(std::move(gate));
  gate_entered.get_future().wait();

  for (const auto& [name, prio] : std::vector<std::pair<std::string, int>>{
           {"p0", 0}, {"p5a", 5}, {"p1", 1}, {"p5b", 5}}) {
    batch::Job job;
    job.name = name;
    job.priority = prio;
    job.config = scene_config(14.0, "naive");
    job.steps = 1;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
  }
  release_gate.set_value();
  scheduler.wait_all();

  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], "gate");
  EXPECT_EQ(order[1], "p5a");
  EXPECT_EQ(order[2], "p5b");  // tie: submission order
  EXPECT_EQ(order[3], "p1");
  EXPECT_EQ(order[4], "p0");
}

// ----------------------------------------------------------- small contracts

TEST(Scheduler, FailedJobsReportTheExceptionAndDontPoisonOthers) {
  batch::SchedulerConfig sc;
  sc.concurrency = 2;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);

  batch::Job bad;
  bad.config = scene_config(14.0, "mwd(dw=0)");  // invalid: dw must be >= 1
  bad.setup = paint_scene;
  scheduler.submit(std::move(bad));
  batch::Job good;
  good.config = scene_config(14.0, "naive");
  good.steps = 2;
  good.setup = paint_scene;
  scheduler.submit(std::move(good));

  const auto results = scheduler.wait_all();
  EXPECT_FALSE(results[0].ok);
  EXPECT_FALSE(results[0].error.empty());
  EXPECT_TRUE(results[1].ok) << results[1].error;
  const batch::BatchStats st = scheduler.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(Scheduler, SubmitAfterWaitAllThrows) {
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1});
  scheduler.wait_all();
  batch::Job job;
  EXPECT_THROW(scheduler.submit(std::move(job)), std::logic_error);
}

TEST(JobResult, RowMatchesHeaderAndJsonCarriesObservables) {
  batch::JobResult r;
  r.index = 3;
  r.name = "lam=16";
  r.ok = true;
  r.total_energy = 1.5;
  r.absorption = {0.25, 0.5};
  r.engine_spec = "mwd(dw=4)";
  r.stats.mlups = 12.5;
  EXPECT_EQ(r.to_row().size(), batch::JobResult::row_header().size());
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"name\":\"lam=16\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"absorption\":[0.25,0.5]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine_spec\":\"mwd(dw=4)\""), std::string::npos);

  const util::Table t = batch::JobResult::table({r});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.cols(), batch::JobResult::row_header().size());
}

// ------------------------------------------------------------ idle eviction

TEST(EnginePool, IdleBoundEvictsLeastRecentlyReleasedEngine) {
  batch::EnginePool pool;
  pool.set_max_idle(2, 0);
  exec::BuildContext ctx;
  ctx.grid = {8, 8, 8};
  ctx.threads = 1;
  const exec::EngineSpec spec = exec::parse_engine_spec("naive");
  exec::BuildContext other = ctx;
  other.grid = {6, 6, 6};

  auto a = pool.acquire_engine(spec, ctx);
  auto b = pool.acquire_engine(spec, ctx);
  auto c = pool.acquire_engine(spec, other);
  pool.release_engine(std::move(a));  // oldest idle
  pool.release_engine(std::move(b));
  pool.release_engine(std::move(c));  // bound 2: evicts `a`, the global LRU

  batch::EnginePool::Stats st = pool.stats();
  EXPECT_EQ(st.engine_evictions, 1);
  EXPECT_EQ(st.idle_engines, 2);

  // The survivors are b (warmest of the 8x8x8 key) and c (6x6x6): the same
  // key hits once then builds, the other key still hits.
  auto r1 = pool.acquire_engine(spec, ctx);
  EXPECT_TRUE(r1.reused);
  auto r2 = pool.acquire_engine(spec, ctx);
  EXPECT_FALSE(r2.reused);
  auto r3 = pool.acquire_engine(spec, other);
  EXPECT_TRUE(r3.reused);

  pool.release_engine(std::move(r1));
  pool.release_engine(std::move(r2));
  pool.release_engine(std::move(r3));
  EXPECT_EQ(pool.stats().engine_evictions, 2);
  EXPECT_EQ(pool.stats().idle_engines, 2);

  // Lowering the bound evicts immediately; raising it never does.
  pool.set_max_idle(1, 0);
  st = pool.stats();
  EXPECT_EQ(st.idle_engines, 1);
  EXPECT_EQ(st.engine_evictions, 3);
  pool.set_max_idle(0, 0);  // back to unbounded
  EXPECT_EQ(pool.stats().engine_evictions, 3);
}

TEST(EnginePool, IdleBoundEvictsFieldSetsIndependently) {
  batch::EnginePool pool;
  pool.set_max_idle(0, 1);
  auto f1 = pool.acquire_fields({8, 8, 8});
  auto f2 = pool.acquire_fields({8, 8, 10});
  pool.release_fields(std::move(f1));
  pool.release_fields(std::move(f2));  // evicts the older 8x8x8 set
  const batch::EnginePool::Stats st = pool.stats();
  EXPECT_EQ(st.fields_evictions, 1);
  EXPECT_EQ(st.idle_fields, 1);
  EXPECT_FALSE(pool.acquire_fields({8, 8, 8}).reused);
  EXPECT_TRUE(pool.acquire_fields({8, 8, 10}).reused);
}

// ----------------------------------------------------------- stats snapshot

TEST(Scheduler, StatsSnapshotHoldsTheAccountingIdentity) {
  std::promise<void> gate_entered;
  std::promise<void> release_gate;
  auto release_future = release_gate.get_future().share();

  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);

  batch::Job gate;
  gate.config = scene_config(14.0, "naive");
  gate.steps = 1;
  gate.setup = [&](thiim::Simulation& sim, const batch::Job& job) {
    gate_entered.set_value();
    release_future.wait();  // hold the only executor
    paint_scene(sim, job);
  };
  scheduler.submit(std::move(gate));
  gate_entered.get_future().wait();

  for (const auto& [lambda, prio] :
       std::vector<std::pair<double, int>>{{12.0, 0}, {13.0, 2}, {14.0, 2}}) {
    batch::Job job;
    job.priority = prio;
    job.config = scene_config(lambda, "naive");
    job.steps = 1;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
  }

  // The gate is claimed (running), the rest sit in the queue by priority.
  batch::BatchStats st = scheduler.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.running, 1u);
  EXPECT_EQ(st.queued, 3u);
  EXPECT_EQ(st.queue_depth.at(0), 1u);
  EXPECT_EQ(st.queue_depth.at(2), 2u);
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.queued + st.running,
            st.submitted);

  release_gate.set_value();
  scheduler.wait_all();
  st = scheduler.stats();
  EXPECT_EQ(st.running, 0u);
  EXPECT_EQ(st.queued, 0u);
  EXPECT_TRUE(st.queue_depth.empty());
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.queued + st.running,
            st.submitted);
}

TEST(Scheduler, SinkJobsStreamTheirResultsAndAreNotKept) {
  // A long-lived scheduler (the daemon's) streams every job through a sink;
  // keeping those results too would grow its memory with every job served.
  batch::SchedulerConfig sc;
  sc.concurrency = 2;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);
  constexpr std::size_t kSinkJobs = 5;
  std::mutex mu;
  std::set<std::size_t> streamed;
  std::size_t calls = 0;
  for (std::size_t i = 0; i < kSinkJobs + 1; ++i) {
    batch::Job job;
    job.config = scene_config(12.0 + static_cast<double>(i), "naive");
    job.steps = 2;
    job.setup = paint_scene;
    if (i != 2) {  // one sink-less job in the middle keeps its result
      job.sink = [&](const batch::JobResult& r) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(r.ok) << r.error;
        streamed.insert(r.index);
        ++calls;
      };
    }
    EXPECT_EQ(scheduler.submit(std::move(job)), i);
  }
  const std::vector<batch::JobResult> results = scheduler.wait_all();
  EXPECT_EQ(calls, kSinkJobs);
  EXPECT_EQ(streamed, (std::set<std::size_t>{0, 1, 3, 4, 5}));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].index, 2u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(scheduler.stats().completed, kSinkJobs + 1);
}

// ------------------------------------------------- preemption / checkpointing

TEST(SchedulerPreempt, PreemptedJobResumesBitExactlyWithCounters) {
  const thiim::SimulationConfig cfg = scene_config(14.0, "naive");
  const int steps = 24;
  const Observables reference = run_standalone(cfg, steps);

  std::promise<void> running;
  std::atomic<bool> armed{true};
  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  sc.preempt_check_every = 2;
  batch::Scheduler scheduler(sc);

  batch::Job job;
  job.config = cfg;
  job.steps = steps;
  job.preemptible = true;
  job.setup = [&](thiim::Simulation& sim, const batch::Job& j) {
    // setup runs on the first claim AND again on the resumed continuation's
    // claim; only the first entry may satisfy the promise.
    if (armed.exchange(false)) running.set_value();
    paint_scene(sim, j);
  };
  const std::size_t index = scheduler.submit(std::move(job));

  // The job is registered preemptible at claim, before setup runs, so once
  // setup has been entered preempt() reliably lands the flag; the run loop
  // polls it every preempt_check_every steps.
  running.get_future().wait();
  EXPECT_TRUE(scheduler.preempt(index));

  const std::vector<batch::JobResult> results = scheduler.wait_all();
  ASSERT_EQ(results.size(), 1u);
  const batch::JobResult& r = results[0];
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.steps_done, steps);
  EXPECT_EQ(r.preemptions, 1);
  EXPECT_TRUE(r.resumed);
  // Bit-exact with the uninterrupted reference.
  EXPECT_EQ(r.total_energy, reference.total_energy);
  EXPECT_EQ(r.electric_energy, reference.electric_energy);
  ASSERT_EQ(r.absorption.size(), reference.absorption.size());
  for (std::size_t m = 0; m < reference.absorption.size(); ++m) {
    EXPECT_EQ(r.absorption[m], reference.absorption[m]) << "material " << m;
  }

  const batch::BatchStats st = scheduler.stats();
  EXPECT_EQ(st.preempted, 1u);
  EXPECT_EQ(st.resumed, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.completed + st.failed + st.cancelled + st.queued + st.running,
            st.submitted);
}

TEST(SchedulerPreempt, NonPreemptibleJobsRefuseTheFlag) {
  std::promise<void> entered;
  std::promise<void> release;
  auto release_future = release.get_future().share();

  batch::SchedulerConfig sc;
  sc.concurrency = 1;
  sc.pin_slots = false;
  batch::Scheduler scheduler(sc);

  batch::Job job;
  job.config = scene_config(14.0, "naive");
  job.steps = 2;
  job.preemptible = false;
  job.setup = [&](thiim::Simulation& sim, const batch::Job& j) {
    entered.set_value();
    release_future.wait();
    paint_scene(sim, j);
  };
  const std::size_t index = scheduler.submit(std::move(job));
  entered.get_future().wait();
  EXPECT_FALSE(scheduler.preempt(index));          // running but not preemptible
  EXPECT_FALSE(scheduler.preempt(index + 100));    // unknown index
  EXPECT_EQ(scheduler.preempt_lower_than(100, 8), 0u);
  release.set_value();
  const auto results = scheduler.wait_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].preemptions, 0);
  EXPECT_EQ(scheduler.stats().preempted, 0u);
}

TEST(SchedulerCheckpoint, PeriodicSnapshotsLandAndFileResumeIsBitExact) {
  const thiim::SimulationConfig cfg = scene_config(16.0, "naive");
  const int steps = 40;
  const Observables reference = run_standalone(cfg, steps);
  const std::string path = testing::TempDir() + "/emwd_batch_job.ckpt";
  std::remove(path.c_str());

  {  // checkpointing run: snapshots at interior boundaries 10, 20, 30.
    batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                      .pin_slots = false});
    batch::Job job;
    job.config = cfg;
    job.steps = steps;
    job.checkpoint_every = 10;
    job.checkpoint_path = path;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
    const auto results = scheduler.wait_all();
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_EQ(results[0].snapshots, 3);
    EXPECT_FALSE(results[0].resumed);
    const batch::BatchStats st = scheduler.stats();
    EXPECT_EQ(st.snapshots_written, 3u);
    EXPECT_GT(st.snapshot_bytes, 0);
  }

  // The file holds the latest snapshot: step 30 of 40.
  EXPECT_EQ(io::read_snapshot_info_file(path).steps_done, 30);

  {  // resume run: restores step 30, runs the remaining 10 — bit-exact.
    batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                      .pin_slots = false});
    batch::Job job;
    job.config = cfg;
    job.steps = steps;
    job.resume_from = path;
    job.setup = paint_scene;
    scheduler.submit(std::move(job));
    const auto results = scheduler.wait_all();
    ASSERT_TRUE(results[0].ok) << results[0].error;
    EXPECT_TRUE(results[0].resumed);
    EXPECT_EQ(results[0].steps_done, steps);
    EXPECT_EQ(results[0].total_energy, reference.total_energy);
    EXPECT_EQ(results[0].electric_energy, reference.electric_energy);
    EXPECT_EQ(scheduler.stats().resumed, 1u);
  }
  std::remove(path.c_str());
}

TEST(SchedulerCheckpoint, ConvergenceJobsCannotResume) {
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = scene_config(14.0, "naive");
  job.converge_tol = 1e-3;
  job.max_steps = 10;
  job.resume_from = "/no/such/snapshot.ckpt";
  job.setup = paint_scene;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("converge"), std::string::npos)
      << results[0].error;
}

TEST(JobJson, CheckpointFieldsRoundTrip) {
  batch::Job job;
  job.name = "ckpt";
  job.steps = 40;
  job.checkpoint_every = 10;
  job.checkpoint_path = "/tmp/a.ckpt";
  job.resume_from = "/tmp/b.ckpt";
  job.preemptible = true;
  const batch::Job back = batch::Job::from_json(job.to_json());
  EXPECT_EQ(back.checkpoint_every, 10);
  EXPECT_EQ(back.checkpoint_path, "/tmp/a.ckpt");
  EXPECT_EQ(back.resume_from, "/tmp/b.ckpt");
  EXPECT_TRUE(back.preemptible);
  EXPECT_THROW(batch::Job::from_json(std::string("{\"checkpoint_every\":-1}")),
               std::invalid_argument);

  batch::JobResult r;
  r.snapshots = 3;
  r.preemptions = 2;
  r.resumed = true;
  const batch::JobResult rback = batch::JobResult::from_json(r.to_json());
  EXPECT_EQ(rback.snapshots, 3);
  EXPECT_EQ(rback.preemptions, 2);
  EXPECT_TRUE(rback.resumed);
}

TEST(SweepCheckpoint, ResumeSkipsCompletedWorkAndStaysBitExact) {
  const std::string dir = testing::TempDir();
  batch::SweepConfig sweep;
  sweep.base = scene_config(12.0, "naive");
  sweep.wavelengths = {12.0, 18.0};
  sweep.steps = 20;
  sweep.setup = paint_scene;
  sweep.scheduler.concurrency = 1;
  sweep.scheduler.pin_slots = false;
  sweep.checkpoint_every = 8;
  sweep.checkpoint_dir = dir;
  for (int i = 0; i < 2; ++i) {
    std::remove((dir + "/job" + std::to_string(i) + ".ckpt").c_str());
  }

  const batch::SweepResult first = batch::run_sweep(sweep);
  ASSERT_TRUE(first.results[0].ok && first.results[1].ok);
  EXPECT_EQ(first.results[0].snapshots, 2);  // steps 8 and 16 of 20

  // Second pass with resume: restores step 16 and redoes only 4 steps; the
  // observables must be bit-identical to the uninterrupted pass.
  sweep.resume = true;
  const batch::SweepResult second = batch::run_sweep(sweep);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(second.results[i].ok) << second.results[i].error;
    EXPECT_TRUE(second.results[i].resumed);
    EXPECT_EQ(second.results[i].total_energy, first.results[i].total_energy);
    EXPECT_EQ(second.results[i].steps_done, 20);
    std::remove((dir + "/job" + std::to_string(i) + ".ckpt").c_str());
  }
}

// ---------------------------------------------------------- failure policies
// Retries with backoff, per-job deadlines and checkpoint auto-recovery
// (src/batch/README.md "Failure semantics" is the contract).

/// Arms the process-global fault registry for one scope; always disarms,
/// even when an assertion fails mid-test.
struct ArmedFaults {
  explicit ArmedFaults(const std::string& spec, std::uint64_t seed = 0) {
    fault::configure(spec, seed);
  }
  ~ArmedFaults() { fault::disarm(); }
};

TEST(SchedulerFaults, ThrowingJobDropsLeasesAndSparesSiblingsEveryEngine) {
  for (const std::string spec :
       {"naive", "spatial(by=4)", "mwd(dw=4,bz=2,tc=1)",
        "sharded(shards=2,interval=2,inner=naive)"}) {
    SCOPED_TRACE(spec);
    const Observables reference = run_standalone(scene_config(14.0, spec), 4);
    // concurrency=1 makes the hit order deterministic: the first
    // engine.step evaluation belongs to job 0, which therefore fails;
    // the cap is spent before its siblings ever reach the point.
    ArmedFaults armed("engine.step=once:1");
    batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                      .pin_slots = false});
    for (int i = 0; i < 3; ++i) {
      batch::Job job;
      job.config = scene_config(14.0, spec);
      job.steps = 4;
      job.setup = paint_scene;
      scheduler.submit(std::move(job));
    }
    const auto results = scheduler.wait_all();
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].error_class, "transient");
    EXPECT_EQ(results[0].attempts, 1);
    // Siblings run on the restored slot, on recycled leases, bit-exact.
    for (int i = 1; i < 3; ++i) {
      ASSERT_TRUE(results[i].ok) << results[i].error;
      EXPECT_EQ(results[i].slot, results[0].slot);
      EXPECT_EQ(results[i].total_energy, reference.total_energy);
      EXPECT_EQ(results[i].electric_energy, reference.electric_energy);
    }
    const batch::BatchStats st = scheduler.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.retries, 0u);  // max_attempts defaults to 1
  }
}

TEST(SchedulerRetry, TransientFailureRetriesAndMatchesFaultFreeRun) {
  const thiim::SimulationConfig cfg = scene_config(16.0, "naive");
  const Observables reference = run_standalone(cfg, 4);
  ArmedFaults armed("engine.step=once:1");
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = cfg;
  job.steps = 4;
  job.setup = paint_scene;
  job.retry.max_attempts = 3;
  job.retry.backoff_seconds = 0.001;  // keep the test fast
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].attempts, 2);  // attempt 1 faulted at run() entry
  EXPECT_EQ(results[0].total_energy, reference.total_energy);
  EXPECT_EQ(results[0].electric_energy, reference.electric_energy);
  EXPECT_EQ(scheduler.stats().retries, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
  EXPECT_EQ(scheduler.stats().failed, 0u);
}

TEST(SchedulerRetry, PermanentErrorsAreNotRetried) {
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = scene_config(14.0, "mwd(dw=0)");  // invalid: the request is wrong
  job.setup = paint_scene;
  job.retry.max_attempts = 5;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error_class, "permanent");
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(scheduler.stats().retries, 0u);
}

TEST(SchedulerRetry, ZeroThreadSpecFailsPermanentlyAndTheNextJobRuns) {
  // A thread count below 1 is a malformed request: refused when the engine
  // is built, never a division by zero inside the engine's run.
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job bad;
  bad.config = scene_config(14.0, "spatial(threads=0)");
  bad.setup = paint_scene;
  bad.retry.max_attempts = 3;
  scheduler.submit(std::move(bad));
  batch::Job good;
  good.config = scene_config(14.0, "spatial");
  good.steps = 2;
  good.setup = paint_scene;
  scheduler.submit(std::move(good));
  const auto results = scheduler.wait_all();
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error_class, "permanent");
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_NE(results[0].error.find("threads"), std::string::npos) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(scheduler.stats().failed, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
}

TEST(SchedulerRetry, ExhaustedAttemptsReportTheLastError) {
  // every:1*3 fires on all three attempts: the job fails for good.
  ArmedFaults armed("engine.step=every:1*3");
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = scene_config(16.0, "naive");
  job.steps = 2;
  job.setup = paint_scene;
  job.retry.max_attempts = 3;
  job.retry.backoff_seconds = 0.001;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error_class, "transient");
  EXPECT_EQ(results[0].attempts, 3);
  EXPECT_NE(results[0].error.find("engine.step"), std::string::npos);
  EXPECT_EQ(scheduler.stats().retries, 2u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(SchedulerRetry, RecoveryResumesFromTheNewestValidCheckpoint) {
  const thiim::SimulationConfig cfg = scene_config(16.0, "naive");
  const int steps = 40;
  const Observables reference = run_standalone(cfg, steps);
  const std::string path = testing::TempDir() + "/emwd_retry.ckpt";
  std::remove(path.c_str());
  // Hit order: run() entry, then the hooks at steps 10/20/30.  once:3 fires
  // at the step-20 boundary BEFORE its snapshot is captured, so attempt 1
  // leaves exactly the step-10 checkpoint behind; attempt 2 must restore it
  // and finish bit-exactly.
  ArmedFaults armed("engine.step=once:3");
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = cfg;
  job.steps = steps;
  job.checkpoint_every = 10;
  job.checkpoint_path = path;
  job.setup = paint_scene;
  job.retry.max_attempts = 2;
  job.retry.backoff_seconds = 0.001;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_TRUE(results[0].resumed);
  EXPECT_EQ(results[0].steps_done, steps);
  EXPECT_EQ(results[0].total_energy, reference.total_energy);
  EXPECT_EQ(results[0].electric_energy, reference.electric_energy);
  EXPECT_EQ(scheduler.stats().retries, 1u);
  std::remove(path.c_str());
}

TEST(SchedulerRetry, CorruptResumeFileQuarantinesAndStartsFromScratch) {
  const thiim::SimulationConfig cfg = scene_config(16.0, "naive");
  const Observables reference = run_standalone(cfg, 4);
  const std::string path = testing::TempDir() + "/emwd_corrupt.ckpt";
  std::ofstream(path, std::ios::binary) << "not a snapshot at all";
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = cfg;
  job.steps = 4;
  job.resume_from = path;
  job.setup = paint_scene;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_FALSE(results[0].resumed);  // nothing valid to resume: scratch run
  EXPECT_EQ(results[0].quarantined, 1);
  EXPECT_EQ(results[0].total_energy, reference.total_energy);
  EXPECT_TRUE(std::ifstream(path + ".bad").good());
  EXPECT_FALSE(std::ifstream(path).good());
  EXPECT_EQ(scheduler.stats().quarantined, 1u);
  std::remove((path + ".bad").c_str());
}

TEST(SchedulerDeadline, ExpiredBudgetFailsWithDeadlineClassAndNoRetry) {
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = scene_config(16.0, "naive");
  job.steps = 100000;  // would run far longer than the budget
  job.setup = paint_scene;
  job.deadline_seconds = 1e-9;  // expires before the first attempt starts
  job.retry.max_attempts = 3;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].error_class, "deadline");
  EXPECT_EQ(results[0].attempts, 1);  // a spent budget is never retried
  EXPECT_NE(results[0].error.find("deadline"), std::string::npos);
  EXPECT_EQ(scheduler.stats().retries, 0u);
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(SchedulerDeadline, GenerousBudgetDoesNotPerturbResults) {
  const thiim::SimulationConfig cfg = scene_config(16.0, "naive");
  const Observables reference = run_standalone(cfg, 4);
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false});
  batch::Job job;
  job.config = cfg;
  job.steps = 4;
  job.setup = paint_scene;
  job.deadline_seconds = 3600.0;
  scheduler.submit(std::move(job));
  const auto results = scheduler.wait_all();
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].total_energy, reference.total_energy);
  EXPECT_EQ(results[0].electric_energy, reference.electric_energy);
}

TEST(SchedulerDeadline, BudgetExpiringMidRunStopsFixedStepAndConvergenceJobs) {
  // Both jobs would run for seconds; their budget expires mid-run, and each
  // must stop at its next step boundary.  The convergence job checks every
  // 10 steps, below the 16-step poll cadence, so its only boundaries are its
  // convergence checks.
  batch::Scheduler scheduler(batch::SchedulerConfig{.concurrency = 1,
                                                    .pin_slots = false,
                                                    .preempt_check_every = 16});
  for (const bool converge : {false, true}) {
    batch::Job job;
    job.name = converge ? "converge" : "fixed";
    job.config = scene_config(16.0, "naive");
    job.steps = 200000;
    if (converge) {
      job.converge_tol = 1e-300;  // unreachable: only the deadline stops it
      job.check_every = 10;
    }
    job.setup = paint_scene;
    job.deadline_seconds = 0.2;
    job.retry.max_attempts = 3;
    scheduler.submit(std::move(job));
  }
  const auto results = scheduler.wait_all();
  ASSERT_EQ(results.size(), 2u);
  for (const batch::JobResult& r : results) {
    SCOPED_TRACE(r.name);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_class, "deadline");
    EXPECT_EQ(r.attempts, 1);
  }
  EXPECT_EQ(scheduler.stats().failed, 2u);
  EXPECT_EQ(scheduler.stats().retries, 0u);
}

TEST(JobJson, FailurePolicyFieldsRoundTrip) {
  batch::Job job;
  job.name = "rt";
  job.config = scene_config(16.0, "naive");
  job.steps = 4;
  job.checkpoint_keep = 3;
  job.deadline_seconds = 12.5;
  job.retry.max_attempts = 4;
  job.retry.backoff_seconds = 0.25;
  job.retry.backoff_multiplier = 3.0;
  job.retry.max_backoff_seconds = 2.0;
  job.retry.jitter = 0.2;
  const batch::Job back = batch::Job::from_json(util::JsonValue::parse(job.to_json()));
  EXPECT_EQ(back.checkpoint_keep, 3);
  EXPECT_EQ(back.deadline_seconds, 12.5);
  EXPECT_EQ(back.retry.max_attempts, 4);
  EXPECT_EQ(back.retry.backoff_seconds, 0.25);
  EXPECT_EQ(back.retry.backoff_multiplier, 3.0);
  EXPECT_EQ(back.retry.max_backoff_seconds, 2.0);
  EXPECT_EQ(back.retry.jitter, 0.2);

  batch::JobResult r;
  r.ok = false;
  r.error = "boom";
  r.error_class = "transient";
  r.attempts = 2;
  r.quarantined = 1;
  const batch::JobResult rb =
      batch::JobResult::from_json(util::JsonValue::parse(r.to_json()));
  EXPECT_EQ(rb.error_class, "transient");
  EXPECT_EQ(rb.attempts, 2);
  EXPECT_EQ(rb.quarantined, 1);
}

}  // namespace
