// Engine interface: every code variant the paper compares is an Engine.
//
//   naive    — 12 separate full-grid loop nests per step (Sec. III-A)
//   spatial  — same nests with y-blocking for the layer condition (III-B)
//   mwd      — multicore wavefront diamond blocking (Sec. II); thread-group
//              size 1 is the paper's 1WD, full-socket group is 18WD-style.
//
// naive and spatial are one engine (exec/spatial_engine.cpp) walking
// exec::traverse_sweep: naive is spatial with a block height by >= ny.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "grid/fieldset.hpp"

namespace emwd::util {
class JsonValue;  // util/json.hpp — only from_json's signature needs it
}

namespace emwd::exec {

struct EngineStats {
  double seconds = 0.0;
  std::int64_t steps = 0;
  std::int64_t lups = 0;           // lattice-site updates performed
  double mlups = 0.0;              // performance in MLUP/s
  std::int64_t tiles_executed = 0; // MWD only
  std::int64_t barrier_episodes = 0;
  /// Cumulative thread-seconds spent blocked popping the tile queue (MWD
  /// leaders only) — the scheduler overhead the paper calls negligible.
  double queue_wait_seconds = 0.0;
  /// Cumulative thread-seconds inside intra-group barriers.
  double barrier_wait_seconds = 0.0;
  /// Domain shards the run was decomposed into (1 for single-domain engines).
  int shards = 1;
  /// Cumulative thread-seconds copying ghost z-planes between shards.
  double halo_exchange_seconds = 0.0;
  /// Payload bytes moved by halo exchanges over the whole run.
  std::int64_t halo_bytes_moved = 0;
  /// Cumulative thread-seconds a shard spent stalled on the exchange: the
  /// post/wait protocol's neighbor-readiness and buffer-reuse spins.
  double halo_wait_seconds = 0.0;
  /// Portion of halo_exchange_seconds that did NOT extend the critical
  /// path: ghost-plane copies performed while the shard was anyway waiting
  /// for its other neighbor to publish.
  double halo_hidden_seconds = 0.0;
  /// Per-transport accounting of the exchange's two halves:
  std::int64_t halo_staged_bytes = 0;    // payload packed by Transport::stage
  std::int64_t halo_unstaged_bytes = 0;  // payload unpacked by Transport::unstage
  double halo_stage_seconds = 0.0;       // thread-seconds inside stage
  double halo_unstage_seconds = 0.0;     // thread-seconds inside unstage
  /// Name of the halo transport that moved the bytes ("local", "shm",
  /// "mpi", ...).  Empty for engines without a halo; registry names are
  /// dynamic, hence a string rather than a static pointer.
  std::string halo_transport;
  /// Body of kernels::update_row the engine's rows ran: kernels::row_isa(),
  /// "avx512", "avx2" or "scalar" (static string, never dangles).  The
  /// stock engines set it on every run, so a CPU on which dispatch missed
  /// a vector body shows here and in the bench CSVs rather than only as
  /// lost throughput.  Defaults to "scalar" so stats of wrappers and test
  /// doubles are never empty.
  const char* kernel_isa = "scalar";

  /// Exchange stall a shard could not hide: wait + copy - hidden.
  double halo_exposed_seconds() const {
    return halo_wait_seconds + halo_exchange_seconds - halo_hidden_seconds;
  }

  /// The canonical serialized form of a run's stats: one JSON object with
  /// every field above plus the derived halo_exposed_seconds, doubles at
  /// 17 significant digits (exact round trip).  Every emitter that ships
  /// engine stats — JobResult::to_json, the benches' JSON rows, the
  /// daemon's status document — embeds this object instead of hand-rolling
  /// its own field list, so the field set cannot drift per consumer.
  std::string to_json() const;

  /// Exact inverse of to_json() (unknown fields ignored, absent fields
  /// keep their defaults).  `kernel_isa` is interned to a static
  /// "avx512" / "avx2" / "scalar" string so the pointer never dangles.
  static EngineStats from_json(const util::JsonValue& v);

  /// Fold another run's stats into this one so batch results aggregate
  /// without hand-rolled loops: times, steps and byte/work counters sum;
  /// peak-like fields (`shards`) take the max; `kernel_isa` promotes away
  /// from "scalar" exactly like accumulate_work.
  /// `mlups` becomes the wall-time-weighted mean throughput (the max of the
  /// two when neither run carries wall time), so merging a
  /// default-constructed EngineStats is an identity in every field.
  EngineStats& merge(const EngineStats& other);
};

/// Accumulate `from`'s work counters (lups, tiles, barrier episodes, wait
/// and halo times) into `into`.  Wall-clock `seconds`, `steps`, `mlups` and
/// `shards` are aggregation-policy decisions left to the caller; the
/// sharded engine sums counters across shards and rounds this way.
void accumulate_work(EngineStats& into, const EngineStats& from);

class Engine {
 public:
  virtual ~Engine() = default;
  virtual std::string name() const = 0;
  virtual int threads() const = 0;

  /// Advance the fields by `steps` full time steps, collecting stats.
  virtual void run(grid::FieldSet& fs, int steps) = 0;

  const EngineStats& stats() const { return stats_; }

 protected:
  EngineStats stats_;
};

/// Advance `fs` by up to `steps` steps as run() calls of at most `every`
/// steps (one call when every <= 0), calling `boundary(done)` between two
/// calls, never after the last, with the steps done so far.  A false return
/// stops the run there.  Valid for every engine because run(a); run(b) is
/// bit-exact with run(a+b).  Each call's stats are merged into `stats`.
/// Returns the steps advanced: `steps` unless `boundary` stopped the run.
int run_segmented(Engine& engine, grid::FieldSet& fs, int steps, int every,
                  const std::function<bool(int done)>& boundary, EngineStats& stats);

/// Tile scheduling policy.  FifoQueue is the paper's dynamic scheduler
/// (Sec. II-A); StaticWave is the ablation baseline — tiles of one DAG
/// wavefront are statically assigned round-robin and a global barrier
/// separates wavefronts (no queue, more synchronization, no load balance).
enum class TileSchedule { FifoQueue, StaticWave };

/// MWD configuration (paper notation: Dw, BZ, thread-group split, #groups).
struct MwdParams {
  int dw = 4;        // diamond width in y cells
  int bz = 1;        // wavefront block height in z planes
  int tx = 1;        // intra-tile threads along x
  int tz = 1;        // intra-tile threads along the z window
  int tc = 1;        // intra-tile threads across field components (1,2,3,6)
  int num_tgs = 1;   // concurrent thread groups
  TileSchedule schedule = TileSchedule::FifoQueue;

  int tg_size() const { return tx * tz * tc; }
  int threads() const { return tg_size() * num_tgs; }
  std::string describe() const;

  friend bool operator==(const MwdParams&, const MwdParams&) = default;
};

std::unique_ptr<Engine> make_naive_engine(int threads);
/// block_y <= 0 sizes the y-block from the host's L3 per thread.
std::unique_ptr<Engine> make_spatial_engine(int threads, int block_y = 0);
std::unique_ptr<Engine> make_mwd_engine(const MwdParams& params);

/// Plain multicore wavefront temporal blocking (Lamport's scheme as used by
/// Wellein et al., the paper's ref. [21]): a z-wavefront over the whole x-y
/// plane with no diamond tiling.  Expressed as the degenerate diamond whose
/// width covers the entire y extent, so it shares the MWD machinery and is
/// exactly comparable.  `threads` become one thread group splitting
/// x/z/components like MWD does.
struct WavefrontParams {
  int bz = 1;  // wavefront block height in z
  int tx = 1;
  int tz = 1;
  int tc = 1;
};
std::unique_ptr<Engine> make_wavefront_engine(const WavefrontParams& params,
                                              const grid::Extents& grid,
                                              int max_steps_per_block = 8);

}  // namespace emwd::exec
