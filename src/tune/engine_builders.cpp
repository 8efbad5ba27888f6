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

int context_threads(const EngineSpec& spec, const BuildContext& ctx) {
  return static_cast<int>(
      spec.get_int("threads", static_cast<long>(ctx.resolved_threads())));
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
  const int threads = context_threads(spec, ctx);

  // Per-shard inner specs (`inner0=mwd(...),inner1=...`) — plans emitted by
  // the sharded tuner serialize this way (ShardPlan::to_spec).
  std::vector<exec::MwdParams> per_shard;
  for (const EngineSpec::Arg& a : spec.args) {
    if (!is_indexed_inner_key(a.key)) continue;
    const std::optional<EngineSpec> sub = spec.child(a.key);
    // strtol, not stoi: an absurd index must stay an invalid_argument (the
    // grammar's only error type), not escape as std::out_of_range.
    char* end = nullptr;
    const long idx = std::strtol(a.key.c_str() + 5, &end, 10);
    if (*end != '\0' || idx != static_cast<long>(per_shard.size())) {
      throw std::invalid_argument(
          "engine spec: per-shard inners must be contiguous from inner0, got '" +
          a.key + "'");
    }
    per_shard.push_back(exec::mwd_params_from_spec(*sub, /*default_threads=*/1));
  }
  if (!per_shard.empty() && spec.has("inner")) {
    throw std::invalid_argument(
        "engine spec: give either inner=... or inner0=,inner1=,..., not both");
  }

  EngineSpec inner;
  inner.kind = per_shard.empty() ? "naive" : "mwd";
  if (const std::optional<EngineSpec> sub = spec.child("inner")) inner = *sub;

  if (inner.kind == "auto") {
    if (!per_shard.empty()) {
      throw std::invalid_argument("engine spec: inner=auto excludes per-shard inners");
    }
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
  p.overlap = spec.get_bool("overlap", false);
  p.exchange_interval = static_cast<int>(std::max(1L, spec.get_int("interval", 1)));
  p.numa_bind = spec.get_bool("numa", true);
  p.transport = spec.scalar("transport").value_or("local");

  int shards = static_cast<int>(spec.get_int("shards", 0));
  if (shards <= 0) shards = dist::NumaTopology::detect().num_nodes;
  const long tps = spec.get_int("tps", 0);
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

  if (inner.kind == "naive") {
    static const char* const inner_keys[] = {nullptr};
    check_spec_keys(inner, inner_keys);
    p.inner = dist::InnerKind::Naive;
  } else if (inner.kind == "spatial") {
    static const char* const inner_keys[] = {nullptr};
    check_spec_keys(inner, inner_keys);
    p.inner = dist::InnerKind::Spatial;
  } else if (inner.kind == "mwd") {
    p.inner = dist::InnerKind::Mwd;
    if (!per_shard.empty()) {
      p.per_shard_mwd = std::move(per_shard);
    } else if (!inner.args.empty()) {
      p.mwd = exec::mwd_params_from_spec(inner, p.threads_per_shard);
    }
    // A bare `inner=mwd` leaves p.mwd unset: each shard defaults to the
    // 1WD-style one-group-per-thread tiling of its own budget.
  } else {
    throw std::invalid_argument("engine spec: sharded inner must be naive, "
                                "spatial, mwd or auto, got '" + inner.kind + "'");
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
  using exec::detail::context_threads;

  if (spec.kind == "auto") {
    static const char* const keys[] = {"threads", nullptr};
    check_spec_keys(spec, keys);
    TuneConfig tc;
    tc.threads = context_threads(spec, ctx);
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
  sc.threads = context_threads(spec, ctx);
  sc.grid = ctx.grid;
  sc.machine = context_machine(ctx);
  sc.fixed_shards = static_cast<int>(std::max(0L, spec.get_int("shards", 0)));
  sc.fixed_interval = static_cast<int>(std::max(0L, spec.get_int("interval", 0)));
  // Pin the overlap axis when present in either form (`overlap` or
  // `overlap=0|1`); absent means search it.
  if (spec.has("overlap")) sc.fixed_overlap = spec.get_bool("overlap", false) ? 1 : 0;
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
  // Carry the decomposition-independent arguments of the original spec —
  // to_sharded_params/make_sharded_engine honored them before this seam.
  // (transport rides inside the plan now: to_spec() emits it.)
  if (!spec.get_bool("numa", true)) resolved.add("numa", 0L);
  return resolved;
}

}  // namespace emwd::tune
