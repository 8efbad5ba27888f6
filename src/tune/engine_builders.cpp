// The composed engine-spec builders that live above exec: "sharded" (the
// dist subsystem, with inner specs, per-shard inner specs and the halo
// transport) and "auto" (the model-ranked MWD tuner).  Registered into
// EngineRegistry::global() through the exec::detail hook, so every caller
// of the registry sees the full kind set without including this layer.
//
// thiim::Simulation and batch::Scheduler build every engine through the
// registry from SimulationConfig::spec(); an empty spec builds "auto".
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "dist/numa.hpp"
#include "dist/partition.hpp"
#include "dist/sharded_engine.hpp"
#include "dist/transport.hpp"
#include "exec/engine_registry.hpp"
#include "tune/autotuner.hpp"

namespace emwd::exec::detail {

namespace {

using exec::BuildContext;
using exec::EngineSpec;

models::Machine context_machine(const BuildContext& ctx) {
  return ctx.machine ? *ctx.machine : models::host_machine();
}

/// `inner0`, `inner1`, ... — the per-shard inner keys of a sharded spec.
bool is_indexed_inner_key(const std::string& key) {
  if (key.size() <= 5 || key.compare(0, 5, "inner") != 0) return false;
  for (std::size_t i = 5; i < key.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(key[i]))) return false;
  }
  return true;
}

std::unique_ptr<exec::Engine> build_sharded(const EngineSpec& spec,
                                            const BuildContext& ctx) {
  static const char* const keys[] = {"shards", "interval", "overlap", "tps",
                                     "numa",   "tune",     "transport", "inner",
                                     "threads", nullptr};
  check_spec_keys(spec, keys, is_indexed_inner_key);
  // `overlap` names the only exchange protocol there is: still accepted
  // (and type-checked) in every form so existing specs build, it selects
  // nothing.
  (void)spec.get_bool("overlap", false);
  const int threads = spec_threads(spec, ctx);

  // Inner specs pass through unchanged; the engine builds them through
  // this registry.  Per-shard inners (`inner0=mwd(...),inner1=...`) are
  // what the sharded tuner's plans serialize to (ShardPlan::to_spec).
  std::vector<EngineSpec> inners;
  for (const EngineSpec::Arg& a : spec.args) {
    if (!is_indexed_inner_key(a.key)) continue;
    // strtol, not stoi: an absurd index must stay an invalid_argument (the
    // grammar's only error type), not escape as std::out_of_range.
    char* end = nullptr;
    const long idx = std::strtol(a.key.c_str() + 5, &end, 10);
    if (*end != '\0' || idx != static_cast<long>(inners.size())) {
      throw std::invalid_argument(
          "engine spec: per-shard inners must be contiguous from inner0, got '" +
          a.key + "'");
    }
    inners.push_back(*spec.child(a.key));
    if (inners.back().kind == "auto") {
      throw std::invalid_argument(
          "engine spec: per-shard inners cannot be auto (inner=auto tunes them all)");
    }
  }
  if (!inners.empty() && spec.has("inner")) {
    throw std::invalid_argument(
        "engine spec: give either inner=... or inner0=,inner1=,..., not both");
  }
  if (inners.empty()) {
    inners.push_back(spec.child("inner").value_or(EngineSpec{"naive", {}}));
  }
  for (const EngineSpec& inner : inners) {
    if (inner.kind == "sharded") {
      throw std::invalid_argument("engine spec: shards do not nest (inner=sharded)");
    }
  }

  if (inners.front().kind == "auto") {
    // The sharded tuner picks the plan; the resolved spec is fully pinned,
    // so this re-enters build_sharded on the fixed-inner path.
    return ctx.registry->build(tune::resolve_auto_spec(spec, ctx), ctx);
  }
  if (spec.has("tune")) {
    throw std::invalid_argument(
        "engine spec: 'tune' applies only with inner=auto (nothing is tuned "
        "for a fixed inner)");
  }

  dist::ShardedParams p;
  p.exchange_interval = static_cast<int>(spec_count(spec, "interval", 1));
  p.numa_bind = spec.get_bool("numa", true);
  p.transport = spec.scalar("transport").value_or("local");
  p.inners = std::move(inners);
  p.registry = ctx.registry;

  int shards = static_cast<int>(spec_count(spec, "shards", 0));
  if (shards == 0) shards = dist::NumaTopology::detect().num_nodes;
  const long tps = spec_count(spec, "tps", 0);
  if (tps > 0) {
    // An explicit per-shard budget opts out of the thread-budget clamp —
    // benches use this to oversubscribe on purpose.
    p.threads_per_shard = static_cast<int>(tps);
    p.num_shards =
        dist::Partitioner::clamp_shards(ctx.grid.nz, shards, p.exchange_interval);
  } else {
    shards = std::min(shards, threads);  // a shard needs a thread of the budget
    p.num_shards =
        dist::Partitioner::clamp_shards(ctx.grid.nz, shards, p.exchange_interval);
    p.threads_per_shard = std::max(1, threads / p.num_shards);
  }
  return dist::make_sharded_engine(p);
}

/// auto: stage-1 (model-ranked) MWD autotuning — the engine an empty
/// SimulationConfig::engine_spec selects.
std::unique_ptr<exec::Engine> build_auto(const EngineSpec& spec,
                                         const BuildContext& ctx) {
  return ctx.registry->build(tune::resolve_auto_spec(spec, ctx), ctx);
}

}  // namespace

void register_extended_builders(EngineRegistry& registry) {
  registry.register_builder("sharded", build_sharded);
  registry.register_builder("auto", build_auto);
}

}  // namespace emwd::exec::detail

namespace emwd::tune {

bool spec_needs_tuning(const exec::EngineSpec& spec) {
  if (spec.kind == "auto") return true;
  if (spec.kind != "sharded") return false;
  const std::optional<exec::EngineSpec> inner = spec.child("inner");
  return inner && inner->kind == "auto";
}

exec::EngineSpec resolve_auto_spec(const exec::EngineSpec& spec,
                                   const exec::BuildContext& ctx) {
  using exec::detail::check_spec_keys;
  using exec::detail::context_machine;
  using exec::detail::spec_count;
  using exec::detail::spec_threads;

  if (spec.kind == "auto") {
    static const char* const keys[] = {"threads", nullptr};
    check_spec_keys(spec, keys);
    TuneConfig tc;
    tc.threads = spec_threads(spec, ctx);
    tc.grid = ctx.grid;
    tc.machine = context_machine(ctx);
    return exec::to_spec(autotune(tc).best);
  }

  if (!spec_needs_tuning(spec)) return spec;

  // sharded(...,inner=auto): the two-stage sharded tuner picks the plan.
  if (spec.has("tps")) {
    // Fail loudly rather than silently dropping a pin: the tuner derives
    // the per-shard budget itself.
    throw std::invalid_argument(
        "engine spec: 'tps' does not apply with inner=auto (the tuner "
        "derives the per-shard thread budget)");
  }
  ShardedTuneConfig sc;
  sc.threads = spec_threads(spec, ctx);
  sc.grid = ctx.grid;
  sc.machine = context_machine(ctx);
  sc.fixed_shards = static_cast<int>(spec_count(spec, "shards", 0));
  sc.fixed_interval = static_cast<int>(spec_count(spec, "interval", 0));
  // Validate the transport name before the (expensive) tuning sweep, with
  // the registry's own listing error; the plan then prices and carries it.
  sc.transport = spec.scalar("transport").value_or("local");
  dist::require_transport(sc.transport);
  const std::string tune_mode = spec.scalar("tune").value_or("model");
  if (tune_mode != "model" && tune_mode != "measured") {
    throw std::invalid_argument("engine spec: sharded tune mode must be "
                                "'model' or 'measured', got '" + tune_mode + "'");
  }
  sc.timed_refinement = tune_mode == "measured";

  exec::EngineSpec resolved = autotune_sharded(sc).best.plan.to_spec();
  // Carry the decomposition-independent argument the plan does not hold
  // (transport rides inside the plan: to_spec() emits it).
  if (!spec.get_bool("numa", true)) resolved.add("numa", 0L);
  return resolved;
}

}  // namespace emwd::tune
