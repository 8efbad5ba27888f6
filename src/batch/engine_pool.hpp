// EnginePool + PlanCache — amortize engine construction and autotuning
// across jobs that share a grid shape.
//
// A spectrum sweep runs 80-160 simulations over the SAME geometry; without
// pooling every job would re-allocate its FieldSet (about 193 bytes/cell), re-run
// the tuner for `auto` specs and rebuild its engine (for the sharded engine
// that means K more FieldSets plus halo staging).  The pool keeps idle
// engines and FieldSets keyed by (canonical spec string, grid extents,
// thread budget) and hands them out under an exclusive lease; engines carry
// their own per-shape prepared state (MWD tiling cache, the sharded
// engine's shard FieldSets), so a pooled engine's second run skips all of it.
//
// The PlanCache memoizes tune::resolve_auto_spec by the same key: the first
// job with an `auto` spec pays for the tuner, every later job on the same
// shape receives the already-pinned concrete spec.  Concurrent requests for
// one key block on the first resolver instead of tuning twice.
//
// Results are unaffected: a leased engine runs the same deterministic
// kernels, and recycled FieldSets are clear_all()-ed on borrow (see
// thiim::BorrowedState), so pooled and unpooled execution are bit-exact.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/engine_registry.hpp"
#include "grid/fieldset.hpp"

namespace emwd::batch {

/// Memoizes `auto`-spec resolution (the tuner runs) by
/// (spec text, grid, threads, machine).  Thread-safe.
class PlanCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;  // tuner actually ran
  };

  /// Resolve `spec` to a concrete spec via tune::resolve_auto_spec,
  /// memoized.  Specs that need no tuning pass through untouched and
  /// uncounted.  `hit` (optional) reports whether the tuner was skipped.
  /// A failed resolution is not cached; every waiter sees the exception.
  exec::EngineSpec resolve(const exec::EngineSpec& spec,
                           const exec::BuildContext& ctx, bool* hit = nullptr);

  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_future<exec::EngineSpec>> plans_;
  Stats stats_;
};

/// Keeps idle engines and FieldSets for reuse.  Thread-safe; every acquire
/// hands out an exclusive lease (an engine never runs two jobs at once —
/// when all engines of a key are leased, the next acquire builds another).
class EnginePool {
 public:
  struct EngineLease {
    std::unique_ptr<exec::Engine> engine;
    std::string key;
    bool reused = false;  // came from the pool instead of being built
  };
  struct FieldsLease {
    std::unique_ptr<grid::FieldSet> fields;
    std::string key;
    bool reused = false;
  };

  struct Stats {
    std::int64_t engine_hits = 0;
    std::int64_t engine_builds = 0;
    std::int64_t fields_hits = 0;
    std::int64_t fields_builds = 0;
    std::int64_t engine_evictions = 0;  // idle engines dropped by the LRU bound
    std::int64_t fields_evictions = 0;
    int idle_engines = 0;
    int idle_fields = 0;
  };

  /// Bound the idle inventory: when a release would push the idle count
  /// past `max_idle_*`, the least-recently-released idle entry (across all
  /// keys) is destroyed instead of hoarded.  <= 0 means unbounded (the
  /// default) — a long-lived daemon serving many shapes should set both so
  /// its memory stays bounded (see SchedulerConfig::max_idle_engines).
  /// Lowering the bound evicts immediately; outstanding leases are never
  /// touched.
  void set_max_idle(int max_idle_engines, int max_idle_fields);

  /// Fetch an idle engine for (spec, ctx.grid, ctx threads) or build one
  /// through EngineRegistry::global().  `spec` should already be resolved
  /// (no `auto`) so that the key is stable; an `auto` spec would re-tune on
  /// every build.
  EngineLease acquire_engine(const exec::EngineSpec& spec,
                             const exec::BuildContext& ctx);

  /// Return a leased engine for reuse.  Call only after a successful run;
  /// drop the lease instead when the run threw (the engine's internal state
  /// is unspecified then).  No-op for an empty lease.
  void release_engine(EngineLease&& lease);

  /// Fetch (or allocate) a FieldSet with interior extents `e`.  Recycled
  /// sets carry stale data; thiim::Simulation clear_all()s borrowed sets.
  FieldsLease acquire_fields(const grid::Extents& e);
  void release_fields(FieldsLease&& lease);

  Stats stats() const;
  /// Drop all idle engines and FieldSets (outstanding leases unaffected).
  void clear();

 private:
  /// Idle entries carry the release tick that drives LRU eviction; within a
  /// key the vector is release-ordered, so front() is that key's oldest and
  /// back() its warmest (acquire pops the back).
  template <typename T>
  struct Idle {
    std::unique_ptr<T> item;
    std::uint64_t tick = 0;
  };
  using IdleEngines = std::map<std::string, std::vector<Idle<exec::Engine>>>;
  using IdleFields = std::map<std::string, std::vector<Idle<grid::FieldSet>>>;

  /// Drop least-recently-released entries until `idle_count` <= `max_idle`
  /// (no-op when unbounded).  Destroyed OUTSIDE the lock by the caller:
  /// engine destructors join thread teams.  Requires mu_ held.
  template <typename M, typename T>
  static void evict_lru(M& idle, int max_idle, int& idle_count,
                        std::int64_t& evictions,
                        std::vector<std::unique_ptr<T>>& graveyard);

  mutable std::mutex mu_;
  IdleEngines idle_engines_;
  IdleFields idle_fields_;
  Stats stats_;
  std::uint64_t tick_ = 0;
  int max_idle_engines_ = 0;  // <= 0: unbounded
  int max_idle_fields_ = 0;
};

/// The memoization/pool key: canonical spec text + grid extents + resolved
/// thread budget (+ machine name when the context pins one).
std::string pool_key(const exec::EngineSpec& spec, const exec::BuildContext& ctx);

}  // namespace emwd::batch
