// Halo exchange between neighboring z-shards.
//
// The classic ghost-zone swap as the MPI code does it — pack, send,
// receive, unpack: every `exchange_interval` steps each shard refreshes its
// overlap planes of all 12 field arrays from the neighbors that own them,
// through the pairwise post/wait protocol (see src/dist/README.md for the
// full contract).  post() stages the shard's donated boundary planes into
// per-side export buffers — a buffered send, exactly MPI_Isend's semantics
// — and publishes the round; the shard is then free to overwrite its live
// planes.  wait() pulls each ghost side out of the owning neighbor's export
// buffer as soon as THAT neighbor has posted (opportunistic order — copying
// one side while the other neighbor is still computing is the hidden
// fraction) and acknowledges consumption so the buffer can be reused one
// round later.  Unstaging writes only the consumer's own ghost planes, in
// its NUMA-local memory.  All ordering is carried by per-shard monotonic
// round counters with acquire/release semantics; there is no global
// synchronization and no acknowledgement on the critical path, so distant
// shards never stall each other and a shard may run a full round ahead of
// a slow neighbor.  An MPI backend implements the same contract with Isend
// (post) and Irecv+Wait (wait) of the identical plane ranges.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "exec/engine.hpp"
#include "grid/fieldset.hpp"

namespace emwd::dist {

class HaloExchange {
 public:
  /// `shard_sets[s]` must outlive the exchanger and use part.shard_layout(s).
  /// All plane motion routes through `transport` (see transport.hpp); null
  /// defaults to the in-process LocalTransport.
  HaloExchange(const Partitioner& part, std::vector<grid::FieldSet*> shard_sets,
               std::unique_ptr<Transport> transport = nullptr);

  /// Reset the per-run round counters and (lazily) allocate the export
  /// buffers.  Call once per run, before any shard thread starts
  /// (single-threaded).
  void reset_flow();

  /// Publish shard `s`'s donated boundary planes as round `round`'s final
  /// values (1-based; call after the round's compute, before the next
  /// compute, on the shard's own thread): stages them into the per-side
  /// export buffers and releases the round counter.  Reusing a buffer
  /// waits for the consumer's acknowledgement of round `round`-1 — free
  /// unless this shard runs more than a full round ahead.  With `drain`
  /// nothing is staged and nothing blocks; the counter still advances so
  /// neighbors never stall on a failed shard.
  void post(int s, std::int64_t round, bool drain = false);

  /// Acquire round `round`'s exchange for shard `s`: pull the lo/hi ghost
  /// sides out of the neighbors' export buffers as each neighbor's post of
  /// `round` lands (whichever is ready first), acknowledging consumption.
  /// On return the shard may compute round `round`+1.  With `drain` no
  /// plane is touched but every counter of shard `s` still advances and
  /// nothing blocks — the failure path stays deadlock-free.  Idempotent
  /// per (s, round): a retry after a partial wait (e.g. an exception
  /// between the two pulls) completes the counter protocol without
  /// redoing finished sides.
  void wait(int s, std::int64_t round, bool drain = false);

  /// Shard `s`'s exchange counters since the last take_stats(), in the
  /// `halo_*` fields of exec::EngineStats (every other field stays zero):
  /// copy, wait and hidden seconds, payload bytes, and the transport's
  /// staged/unstaged bytes and seconds.  Only the thread exchanging for
  /// shard `s` writes it: read it there or after a join.
  const exec::EngineStats& stats(int s) const {
    return stats_.at(static_cast<std::size_t>(s));
  }

  /// Sum of all shards' stats(), which are then zeroed.  Single-threaded:
  /// call it when no shard thread is running (the sharded engine does so
  /// once per run, after the join).
  exec::EngineStats take_stats();

  /// Payload bytes one full exchange episode moves across all shards.
  std::int64_t bytes_per_exchange() const;

  /// Same quantity computed from the partition alone — no shard FieldSets
  /// needed, so the tuner's analytic stage can cost a candidate decomposition
  /// without allocating it.
  static std::int64_t bytes_per_exchange(const Partitioner& part);

  /// Largest per-shard payload of one exchange episode: the copy bytes on a
  /// single shard's critical path, since pulls proceed pairwise instead of
  /// at a global stop.
  static std::int64_t max_shard_bytes_per_exchange(const Partitioner& part);

  const Transport& transport() const { return *transport_; }

 private:
  /// One cache line per counter: the protocol spins on neighbors' counters
  /// while owners advance their own.
  struct alignas(64) RoundCounter {
    std::atomic<std::int64_t> v{0};
  };

  const Partitioner& part_;
  std::vector<grid::FieldSet*> shards_;
  std::unique_ptr<Transport> transport_;
  std::vector<exec::EngineStats> stats_;
  std::vector<RoundCounter> posted_;       // rounds shard s has staged + published
  std::vector<RoundCounter> consumed_lo_;  // rounds whose lo ghosts shard s pulled
  std::vector<RoundCounter> consumed_hi_;  // rounds whose hi ghosts shard s pulled
  std::vector<HaloBuffer> export_down_;    // shard s's bottom planes, for s-1
  std::vector<HaloBuffer> export_up_;      // shard s's top planes, for s+1
};

}  // namespace emwd::dist
