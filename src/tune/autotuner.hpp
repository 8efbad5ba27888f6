// Auto-tuner for the MWD engine (paper Sec. II-A).
//
// Two stages, mirroring the Girih tuner: (1) model ranking — every
// candidate from the parameter space is scored with the cache block size
// model (Eq. 11) and the bottleneck performance model, discarding tiles
// that overflow the usable LLC share; on a calibrated machine
// (models::host_machine()) the score prices the cache level a tile lives
// in, the group's split kind and the groups a wavefront keeps busy (see
// src/tune/README.md); (2) optional timed refinement — the top-K surviving
// candidates are run for a few time steps on the real engine and the
// fastest wins.  `auto` runs stage 1 only.
//
// The sharded tuner (autotune_sharded) extends the same two-stage scheme
// over the domain-decomposition axes: stage 1 enumerates every feasible
// (num_shards, exchange_interval) pair, tunes one MwdParams per shard
// against that shard's REAL extended sub-grid (uneven remainder blocks and
// ghost-heavy interior shards differ), and scores the aggregate with an
// analytic redundant-LUP + halo-bytes penalty; stage 2 runs the top-K plans
// on the actual ShardedEngine for a truncated step budget (warmup + timed
// repeats, reusing the engine's prepared shard state) and the fastest
// measured plan wins.
#pragma once

#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/engine_registry.hpp"
#include "models/machine.hpp"
#include "tune/space.hpp"
#include "util/csv.hpp"

namespace emwd::tune {

struct Candidate {
  exec::MwdParams params;
  double cache_bytes = 0.0;      // Eq. 11 * num_tgs
  double overflow = 0.0;         // cache_bytes / usable LLC
  double model_bpl = 0.0;        // predicted bytes/LUP (possibly degraded)
  double predicted_mlups = 0.0;  // bottleneck-model score
  double measured_mlups = 0.0;   // timed refinement result (0 if not timed)
};

struct TuneConfig {
  int threads = 1;
  grid::Extents grid{64, 64, 64};
  models::Machine machine;
  SpaceLimits limits;
  bool timed_refinement = false;  // needs a real FieldSet-sized allocation
  int refine_top_k = 4;
  int refine_steps = 2;
};

struct TuneResult {
  exec::MwdParams best;
  Candidate best_candidate;
  std::vector<Candidate> ranked;  // descending score, post-pruning
};

/// Score a single candidate with the models (stage 1 unit).  A machine
/// without calibration (the paper's) scores with pcore_mlups, sync_drag and
/// the paper's 40 arrays; a calibrated one with its measured terms and the
/// engines' compact layout.
Candidate score_candidate(const exec::MwdParams& p, const grid::Extents& grid,
                          const models::Machine& m);

/// Canonical ranking predicate: fitting candidates first, then predicted
/// performance, larger diamonds, component parallelism of 2-3 (the split
/// the paper's tuner converges on, Fig. 7b), smaller x splits (longer
/// per-thread rows), larger groups.
bool candidate_better(const Candidate& a, const Candidate& b);

/// Full auto-tune.  With timed_refinement the tuner allocates a FieldSet of
/// `grid` with synthetic coefficients — callers should size grids so this
/// fits in memory.
TuneResult autotune(const TuneConfig& cfg);

// ------------------------------------------------------ sharded two-stage

/// One point of the sharded search space: the full per-shard plan plus its
/// analytic score and (for stage-2 survivors) the measured result.
struct ShardedCandidate {
  ShardPlan plan;
  std::vector<Candidate> per_shard;     // model score of each shard's tiling
  double redundant_lup_fraction = 0.0;  // ghost-plane recompute per useful LUP
  double halo_bytes_per_step = 0.0;     // exchange payload amortized over T
  /// Payload bytes per step on the critical path: copies proceed pairwise,
  /// so only the worst single shard's pull is exposed; the rest hides
  /// behind neighboring shards' compute.
  double exposed_halo_bytes_per_step = 0.0;
  double predicted_mlups = 0.0;         // aggregate, penalized (stage 1)
  double measured_mlups = 0.0;          // stage 2 (0 if not timed)
  double measured_seconds = 0.0;        // best timed repeat over refine_steps
};

struct ShardedTuneConfig {
  int threads = 1;
  grid::Extents grid{64, 64, 64};
  models::Machine machine;
  SpaceLimits limits;
  /// Pin an axis instead of searching it (0 = search).  Pinned values are
  /// clamped to what the grid can actually support, so the emitted plan is
  /// always feasible.
  int fixed_shards = 0;
  int fixed_interval = 0;
  /// Halo transport the emitted plan runs over; the model multiplies its
  /// exchange term by transport_cost_factor(transport), so a costlier
  /// transport shifts the search toward fewer shards / deeper intervals.
  std::string transport = "local";
  /// Stage 2: run the top-K stage-1 plans on the real ShardedEngine.  Each
  /// plan gets `warmup_steps` untimed steps (its first run also allocates
  /// the shard state, outside the timed region) and `repeats` timed runs
  /// of `refine_steps`; the best repeat is the plan's time.  Requires a
  /// FieldSet-sized allocation of `grid` plus one per shard.
  bool timed_refinement = true;
  int refine_top_k = 3;
  int refine_steps = 4;
  int warmup_steps = 1;
  int repeats = 2;
  bool numa_bind = true;
};

struct ShardedTuneResult {
  ShardedCandidate best;
  std::vector<ShardedCandidate> ranked;  // stage-1 order (predicted desc)

  /// One row per ranked candidate: decomposition knobs, analytic costs,
  /// stage-1 and stage-2 scores, and the serialized plan.
  util::Table to_table() const;
  /// RFC-4180-ish CSV of to_table() — benches archive this as an artifact.
  std::string to_csv() const;
};

/// Analytic (stage-1) score of one (num_shards, exchange_interval) point:
/// per-shard MWD tuning against the real sub-grids plus the redundant-LUP
/// and halo-bandwidth penalties — only the exposed (worst single shard)
/// halo bytes are charged against the bandwidth roof.  The pair must be
/// feasible for cfg.grid.
ShardedCandidate score_sharded_candidate(int num_shards, int exchange_interval,
                                         const ShardedTuneConfig& cfg);

/// The full two-stage sharded auto-tune described above.
ShardedTuneResult autotune_sharded(const ShardedTuneConfig& cfg);

/// Stage-2 measurement unit, shared with the benches so chosen-vs-exhaustive
/// comparisons use one methodology: build plan.to_spec() through the
/// registry for cfg.grid (with `numa=0` unless cfg.numa_bind), run
/// cfg.warmup_steps untimed (at least a zero-step run, so the shard
/// allocation stays outside the timed region), then max(1, cfg.repeats)
/// timed runs of cfg.refine_steps on zeroed fields of `fs`; returns the
/// best repeat's wall seconds.  `fs` must have extents cfg.grid; its field
/// values are clobbered.
double time_sharded_plan(const ShardPlan& plan, grid::FieldSet& fs,
                         const ShardedTuneConfig& cfg);

// ------------------------------------------------------- plan-cache seam

/// True when building `spec` would invoke a tuner: kind "auto", or
/// "sharded" with inner=auto.  Everything else builds deterministically
/// from its pinned arguments.
bool spec_needs_tuning(const exec::EngineSpec& spec);

/// Resolve the tuned kinds of `spec` to a concrete, fully pinned spec for
/// (ctx.grid, ctx threads, ctx machine): "auto" becomes the tuner's best
/// `mwd(...)`, "sharded(inner=auto,...)" becomes the sharded tuner's plan
/// (ShardPlan::to_spec, with the original numa/transport arguments carried
/// over).  Specs that need no tuning return unchanged.  Building the
/// resolved spec through the registry reproduces the engine the original
/// spec would have built — the "auto" and "sharded" builders themselves
/// construct through this function, and the batch layer's PlanCache
/// memoizes it so jobs sharing a grid shape tune once.
exec::EngineSpec resolve_auto_spec(const exec::EngineSpec& spec,
                                   const exec::BuildContext& ctx);

}  // namespace emwd::tune
