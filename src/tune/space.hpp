// MWD parameter space enumeration (paper Sec. II-A: "the parameter search
// space is narrowed down to diamond tiles that fit within a predefined
// cache size range using a cache block size model").
#pragma once

#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/engine_spec.hpp"
#include "grid/layout.hpp"

namespace emwd::tune {

struct SpaceLimits {
  int max_dw = 32;
  int max_bz = 16;
  /// Minimum x cells per intra-tile x-thread (short rows waste pipelines;
  /// paper Sec. VI warns below ~50 cells).
  int min_x_per_thread = 16;
  /// Domain-decomposition axis of the space: largest z-shard count to try
  /// and the fewest owned z-planes a shard may be left with.
  int max_shards = 8;
  int min_shard_planes = 8;
  /// Largest halo-exchange interval (== overlap depth) to try.  Deeper
  /// intervals trade redundant ghost-plane compute for fewer
  /// synchronizations; the sweet spot is grid- and machine-dependent.
  int max_exchange_interval = 4;
};

/// All thread-group factorizations and tiling parameters for `threads`
/// total threads on the given grid.  Every returned candidate satisfies:
///   tx*tz*tc * num_tgs == threads,  tc in {1,2,3,6},  tz <= bz,
///   dw <= min(ny, max_dw),  bz <= min(nz, max_bz),
///   nx / tx >= min_x_per_thread.
std::vector<exec::MwdParams> enumerate_candidates(int threads, const grid::Extents& grid,
                                                  const SpaceLimits& limits = {});

/// The divisors of n in ascending order.
std::vector<int> divisors(int n);

/// Shard counts worth trying for a domain-decomposed (ShardedEngine) run:
/// ascending K with K <= max_shards, K <= threads (a shard needs a thread)
/// and nz/K >= min_shard_planes.  Always contains K = 1.
std::vector<int> enumerate_shard_counts(int threads, const grid::Extents& grid,
                                        const SpaceLimits& limits = {});

/// Exchange intervals worth trying for `num_shards` z-shards of `grid`:
/// ascending T with T <= max_exchange_interval and, for K > 1, T no deeper
/// than the smallest owned z-block (the Partitioner's feasibility bound —
/// a neighbor must own every plane it donates).  K == 1 needs no exchange,
/// so the axis collapses to {1}.  Never empty.
std::vector<int> enumerate_exchange_intervals(int num_shards, const grid::Extents& grid,
                                              const SpaceLimits& limits = {});

/// A complete sharded execution plan as emitted by the sharded tuner: the
/// decomposition knobs plus one MwdParams per shard, tuned against that
/// shard's real extended sub-grid (uneven remainder blocks and PML-heavy
/// boundary shards each get their own tiling).
struct ShardPlan {
  int num_shards = 1;
  int exchange_interval = 1;
  /// Halo transport the plan runs over (dist::make_transport name).  Not a
  /// searched axis — the caller picks the deployment (shm for process
  /// isolation, mpi across nodes) and the tuner prices its per-byte cost
  /// into the exchange term via transport_cost_factor().
  std::string transport = "local";
  std::vector<exec::MwdParams> per_shard;  // size == num_shards

  std::string describe() const;

  /// The engine spec executing this plan:
  /// `sharded(shards=..,interval=..,tps=..,inner=mwd(...))` —
  /// per-shard tilings serialize as `inner0=..,inner1=..` when they differ.
  /// Building the spec through the registry is how a plan runs — stage-2
  /// timing included — and tuner CSVs serialize plans as these strings so
  /// a plan can be replayed with `--engine`.
  exec::EngineSpec to_spec() const;
};

/// Relative per-byte cost of a halo transport against the in-process
/// baseline ("local" == 1.0): the multiplier the sharded tuner applies to
/// its bandwidth-roof exchange term.  Coarse by design — it ranks plans, it
/// does not predict wall time: shm adds a ring-slot protocol over the same
/// memcpy; mpi adds matching and (potentially) a NIC.  Unknown
/// (user-registered) transports get the conservative mpi-class factor.
double transport_cost_factor(const std::string& transport);

}  // namespace emwd::tune
