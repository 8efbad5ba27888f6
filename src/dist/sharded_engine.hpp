// ShardedEngine: domain-decomposed execution over K z-shards.
//
// The global grid is split by a Partitioner into K shards (plus overlap
// ghost planes), each allocated as its own FieldSet with first-touch on its
// assigned NUMA node and advanced by its own inner Engine, built from an
// engine spec through the registry — any registered kind works unmodified
// because the overlap-zone scheme (see partition.hpp) only requires the
// inner engine to be exact on its extended sub-domain.  Each shard thread
// runs one round loop: wait for the previous round's ghost planes, run the
// inner engine for `exchange_interval` steps, post its boundary planes (the
// post/wait protocol of halo.hpp).  Shards synchronize only pairwise, with
// their <= 2 neighbors.
//
// Between runs the shards own the state: a run leaves the caller's
// FieldSet split onto the shard sets (grid::FieldSet::split), so nothing is
// copied back and the caller holds no second copy.  The next run on that
// set goes straight to the rounds; readers take rows from the shards.
//
// Results are bit-identical to the same inner engine on the undecomposed
// grid; the gain is multi-socket memory locality and, for thin or very
// deep domains, independent per-shard tiling.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/engine_registry.hpp"

namespace emwd::dist {

struct ShardedParams {
  int num_shards = 2;        // requested K; clamped so every shard owns >= overlap planes
  int exchange_interval = 1; // steps between halo exchanges == overlap depth
  int threads_per_shard = 1;
  bool numa_bind = true;     // pin shard teams to NUMA nodes (no-op on 1 node)
  /// Inner engine specs.  One entry runs on every shard; with several,
  /// shard s runs inners[min(s, size-1)], so uneven shards (PML-heavy
  /// boundary blocks, remainder planes) can each run their own tuned
  /// tiling — or a different kind altogether.  Each shard builds its inner
  /// with its extended extents and `threads_per_shard` as the BuildContext.
  std::vector<exec::EngineSpec> inners{exec::EngineSpec{"naive", {}}};
  /// Registry the inners are built from; null means
  /// exec::EngineRegistry::global().  The "sharded" builder passes the
  /// registry it was invoked on, so locally registered kinds can be inners.
  /// It must outlive the engine: shard threads build the inners at the
  /// first run on each grid shape.
  const exec::EngineRegistry* registry = nullptr;
  /// Halo transport by registry name (see dist/transport.hpp); "local" is
  /// the shared-memory plane memcpy.  Selected through the engine-spec
  /// grammar as `sharded(...,transport=local)`.
  std::string transport = "local";

  int threads() const { return num_shards * threads_per_shard; }
  std::string describe() const;
};

/// Engine-interface wrapper; usable anywhere the other engines are.
/// The first run() builds everything that depends only on the grid layout
/// — the partition, one NUMA-first-touch FieldSet per shard (the bundle),
/// the halo exchanger and the inner engines — and keeps it; other extents
/// rebuild it.  A run on the set that holds the bundle (the last run's set,
/// not written since) pays only one halo exchange to refresh the ghost
/// planes, then the steps.  A run on any other set first joins it if
/// another bundle holds its values, then scatters it into the bundle and
/// splits it onto the bundle afterwards.  If another set still reads the
/// bundle, the run allocates a new one (first touch, a rebuilt exchanger)
/// instead of writing into values that set reads.  Nothing is ever
/// gathered.  So back-to-back timed runs (tuner refinement, benches)
/// allocate once: a zero-step run() before the timed region moves the
/// allocation and the scatter out of it.
/// The constructor builds each distinct inner spec once on the caller
/// thread, so a malformed inner fails there rather than mid-run.
/// stats() after run(): `lups` counts updates actually performed (including
/// redundant ghost-plane updates), while `mlups` is useful throughput —
/// global interior cells * steps / wall seconds.  `shards`,
/// `halo_exchange_seconds` and `halo_bytes_moved` describe the exchange.
/// If a scatter, an inner engine or a halo call throws in any shard, every
/// shard walks the rest of the round schedule in drain form and finishes
/// the run as a no-op; the first exception is rethrown on the caller after
/// every shard thread has joined.  The set is split onto the bundle even
/// then, and its field values are unspecified: a caller that retries must
/// rewrite them (the scheduler's retries borrow a set, which clear_all()
/// resets, and set it up or restore it again).
std::unique_ptr<exec::Engine> make_sharded_engine(const ShardedParams& params);

}  // namespace emwd::dist
