// Microbenchmarks (google-benchmark): the innermost kernel, tiling
// machinery and cache-simulator throughput.  These are the numbers that
// bound everything else: the row kernel's in-cache rate is the Pcore of the
// bottleneck model.
//
// The unified --engine flag (consumed before google-benchmark sees argv)
// adds a BM_EngineSpec benchmark stepping whatever spec string it names,
// so any registry engine can be timed in place:
//
//   ./bench_micro --engine="sharded(shards=2,inner=mwd(dw=4))" \
//       --benchmark_filter=BM_EngineSpec
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "cachesim/cache.hpp"
#include "common.hpp"
#include "em/coefficients.hpp"
#include "exec/engine.hpp"
#include "fault/inject.hpp"
#include "grid/fieldset.hpp"
#include "kernels/reference.hpp"
#include "kernels/update.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "tiling/dag.hpp"
#include "tiling/diamond.hpp"
#include "util/barrier.hpp"

namespace {

using namespace emwd;

/// One row of state.range(0) cells through `row`.
void run_update_row(benchmark::State& state, void (*row)(const kernels::RowArgs&) noexcept) {
  const int n = static_cast<int>(state.range(0));
  std::vector<double> x(2 * n, 1.0), t(2 * n, 0.5), c(2 * n, 0.25), src(2 * n, 0.1);
  std::vector<double> a(2 * 3 * n, 0.3), b(2 * 3 * n, 0.7);
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
  for (auto _ : state) {
    row(args);
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["flops/cell"] = 22;
}

/// The dispatched row kernel; the label names the body it ran.
void BM_UpdateRow(benchmark::State& state) {
  state.SetLabel(kernels::row_isa());
  run_update_row(state, kernels::update_row);
}
BENCHMARK(BM_UpdateRow)->Arg(16)->Arg(24)->Arg(64)->Arg(128)->Arg(256)->Arg(1024);

/// The portable loop the dispatched kernel must match bit for bit (the
/// paper's Sec. VI SIMD investigation: BM_UpdateRow over this is the gain).
void BM_UpdateRowScalar(benchmark::State& state) {
  run_update_row(state, kernels::update_row_scalar);
}
BENCHMARK(BM_UpdateRowScalar)->Arg(64)->Arg(256)->Arg(1024);

/// One whole x-row of one component as a one-row run of update_comp_rows
/// on an nx x 8 x 8 grid: BM_UpdateRow plus the set-up (component table,
/// source lookup, pointer arithmetic) a run pays before its row.  The
/// set-up cost is this minus BM_UpdateRow at the same nx.
void BM_UpdateCompRow(benchmark::State& state) {
  const int nx = static_cast<int>(state.range(0));
  grid::Layout L({nx, 8, 8});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 1);
  for (auto _ : state) {
    kernels::update_comp_rows(fs, kernels::Comp::Hyx, 0, nx, 4, 5, 4);
    benchmark::DoNotOptimize(fs.field(kernels::Comp::Hyx).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * nx);
  state.SetLabel(kernels::row_isa());
}
BENCHMARK(BM_UpdateCompRow)->Arg(16)->Arg(24)->Arg(128);

/// The engines' unit of work on a benchmark scene: one run of 8 rows at
/// one z of an nx x 8 x 8 grid with one class and periodic x, for Hyz, an
/// x-axis component, so each row also copies its wrap-around partners into
/// the x halo.  The vector bodies hoist a one-class row's (t, c) entry;
/// BM_UpdateCompRow's random classes never take that form.  per_row is the
/// run's time over its rows.
void BM_UpdateCompRows(benchmark::State& state) {
  constexpr int kRows = 8;
  const int nx = static_cast<int>(state.range(0));
  grid::Layout L({nx, kRows, 8});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 1);
  std::fill_n(fs.classes(), L.padded_cells(), std::uint8_t{3});
  fs.set_x_boundary(grid::XBoundary::Periodic);
  for (auto _ : state) {
    kernels::update_comp_rows(fs, kernels::Comp::Hyz, 0, nx, 0, kRows, 4);
    benchmark::DoNotOptimize(fs.field(kernels::Comp::Hyz).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows * nx);
  state.counters["per_row"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kRows),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetLabel(kernels::row_isa());
}
BENCHMARK(BM_UpdateCompRows)->Arg(16)->Arg(24)->Arg(128);

void BM_ReferenceStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  grid::Layout L({n, n, n});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 1);
  for (auto _ : state) {
    kernels::reference_step(fs, 1);
  }
  state.SetItemsProcessed(state.iterations() * L.interior().cells());
  state.counters["MLUPs_basis"] = 1;
}
BENCHMARK(BM_ReferenceStep)->Arg(16)->Arg(32);

void BM_MwdEngineStep(benchmark::State& state) {
  const int n = 32;
  grid::Layout L({n, n, n});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 1);
  exec::MwdParams p;
  p.dw = static_cast<int>(state.range(0));
  p.bz = 2;
  auto engine = exec::make_mwd_engine(p);
  for (auto _ : state) {
    engine->run(fs, 1);
  }
  state.SetItemsProcessed(state.iterations() * L.interior().cells());
}
BENCHMARK(BM_MwdEngineStep)->Arg(2)->Arg(4)->Arg(8);

void BM_SpinBarrierSolo(benchmark::State& state) {
  util::SpinBarrier b(1);
  for (auto _ : state) b.arrive_and_wait();
}
BENCHMARK(BM_SpinBarrierSolo);

// The disarmed fault-point check: one relaxed load and an untaken branch.
// This is what every injection point on a hot path (engine.step, socket
// loops) costs when no chaos run is active — it must stay at ~ns scale or
// the points cannot live in production code.
void BM_FaultCheckDisabled(benchmark::State& state) {
  fault::disarm();
  for (auto _ : state) {
    if (fault::enabled()) fault::should_fire("bench.point");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FaultCheckDisabled);

// The armed-but-miss path for contrast: registry mutex + trigger roll.
void BM_FaultCheckArmedMiss(benchmark::State& state) {
  fault::configure("other.point=once");  // arms the registry, not this point
  for (auto _ : state) {
    if (fault::enabled()) {
      benchmark::DoNotOptimize(fault::should_fire("bench.point"));
    }
  }
  fault::disarm();
}
BENCHMARK(BM_FaultCheckArmedMiss);

// The disarmed OBS_SPAN: the same disarm pattern as the fault points — one
// relaxed load and an untaken branch at scope entry, a dead bool test at
// scope exit.  The spans sit on the engine/halo/scheduler hot paths, so
// this is the always-on observability tax; the obs smoke gate holds it to
// single-digit nanoseconds (see .github/check_obs_smoke.py --max-span-ns).
void BM_ObsSpanDisabled(benchmark::State& state) {
  if (obs::tracing_enabled()) obs::stop_tracing();
  for (auto _ : state) {
    OBS_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

// The armed span for contrast: two clock reads plus a ring-slot write.
void BM_ObsSpanArmed(benchmark::State& state) {
  obs::TraceConfig cfg;
  cfg.ring_capacity = 1 << 12;  // small on purpose; overflow drops are fine
  obs::start_tracing(cfg);
  for (auto _ : state) {
    OBS_SPAN("bench.span");
    benchmark::ClobberMemory();
  }
  obs::stop_tracing();
}
BENCHMARK(BM_ObsSpanArmed);

// One registry counter increment: a relaxed fetch_add on a metric resolved
// once outside the loop (the idiom for hot-path producers).
void BM_ObsCounterInc(benchmark::State& state) {
  obs::Registry reg;  // instance registry: the bench must not pollute global()
  obs::Counter& c = reg.counter("bench.counter");
  for (auto _ : state) {
    c.inc();
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_DiamondSlices(benchmark::State& state) {
  tiling::DiamondTiling dt(static_cast<int>(state.range(0)), 128, 32);
  const auto& tiles = dt.tiles();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dt.slices(tiles[i % tiles.size()]));
    ++i;
  }
}
BENCHMARK(BM_DiamondSlices)->Arg(4)->Arg(16);

void BM_TileQueueDrain(benchmark::State& state) {
  tiling::DiamondTiling dt(4, 64, 16);
  for (auto _ : state) {
    state.PauseTiming();
    tiling::TileDag dag(dt);
    tiling::TileQueue q(dag);
    state.ResumeTiming();
    while (auto t = q.pop()) q.complete(*t);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(dt.tiles().size()));
}
BENCHMARK(BM_TileQueueDrain);

void BM_CacheAccess(benchmark::State& state) {
  cachesim::CacheConfig cfg;
  cfg.size_bytes = 1u << 20;
  cachesim::Cache cache(cfg);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(addr, false));
    addr += 64;
    if (addr > (8u << 20)) addr = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/// One full step of the engine named by --engine, built via the registry.
void BM_EngineSpec(benchmark::State& state, const std::string& spec_text) {
  const int n = 32;
  grid::Layout L({n, n, n});
  grid::FieldSet fs(L);
  em::build_random_stable(fs, 1);
  exec::BuildContext ctx;
  ctx.grid = L.interior();
  ctx.threads = 2;
  std::unique_ptr<exec::Engine> engine;
  try {
    engine = exec::EngineRegistry::global().build(exec::parse_engine_spec(spec_text), ctx);
  } catch (const std::invalid_argument& e) {
    state.SkipWithError(e.what());
    return;
  }
  for (auto _ : state) {
    engine->run(fs, 1);
  }
  state.SetItemsProcessed(state.iterations() * L.interior().cells());
  state.SetLabel(engine->stats().kernel_isa);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec =
      emwd::bench::consume_engine_flag(argc, argv, "mwd(dw=4,bz=2)");
  benchmark::RegisterBenchmark(("BM_EngineSpec/" + spec).c_str(),
                               [spec](benchmark::State& s) { BM_EngineSpec(s, spec); });
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
