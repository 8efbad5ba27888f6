// Multicore Wavefront Diamond engine (paper Sec. II).
//
// Thread groups (TGs) pop diamond tiles from the FIFO ready queue and
// execute them cooperatively: the group's threads split the x rows (tx), the
// z-planes of the wavefront window (tz) and the six concurrently-updatable
// field components (tc), synchronizing on a group-private spin barrier once
// per half-step per wavefront position.  Thread-group size 1 with one group
// per thread is exactly the paper's 1WD; one full-socket group is PWD.
//
// The DiamondTiling / TileDag / TileQueue triple is cached across run()
// calls (keyed on ny and steps): back-to-back timed runs — the sharded
// auto-tuner's stage-2 refinement, per-exchange-round chunks — pay only a
// queue reset instead of a full rebuild.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/engine.hpp"
#include "exec/thread_pool.hpp"
#include "exec/traversal.hpp"
#include "kernels/update.hpp"
#include "obs/trace.hpp"
#include "tiling/dag.hpp"
#include "tiling/diamond.hpp"
#include "util/barrier.hpp"
#include "util/timer.hpp"

namespace emwd::exec {
namespace {

class MwdEngine final : public Engine {
 public:
  explicit MwdEngine(const MwdParams& p) : p_(p) {
    if (p.dw < 1) throw std::invalid_argument("MwdParams: dw must be >= 1");
    if (p.bz < 1) throw std::invalid_argument("MwdParams: bz must be >= 1");
    if (p.tx < 1 || p.tz < 1 || p.tc < 1 || p.tc > 6) {
      throw std::invalid_argument("MwdParams: bad thread-group shape");
    }
    if (p.num_tgs < 1) throw std::invalid_argument("MwdParams: num_tgs must be >= 1");
  }

  std::string name() const override { return p_.describe(); }
  int threads() const override { return p_.threads(); }
  const MwdParams& params() const { return p_; }

  void run(grid::FieldSet& fs, int steps) override {
    OBS_SPAN("engine.run", steps);
    const grid::Layout& L = fs.layout();
    const int nx = L.nx(), ny = L.ny(), nz = L.nz();

    Prepared& prep = prepare(ny, steps);
    const tiling::DiamondTiling& dt = *prep.tiling;
    tiling::TileQueue& queue = *prep.queue;
    queue.reset();

    const TgShape shape{p_.tx, p_.tz, p_.tc};
    const int tg_size = shape.size();
    const int nthreads = p_.threads();

    // Per-group shared state: the leader publishes the popped tile through
    // `current`, the group barrier orders it against the workers.
    struct TgState {
      explicit TgState(int size) : barrier(size) {}
      util::SpinBarrier barrier;
      std::atomic<long> current{-2};
    };
    std::vector<std::unique_ptr<TgState>> groups;
    groups.reserve(static_cast<std::size_t>(p_.num_tgs));
    for (int g = 0; g < p_.num_tgs; ++g) groups.push_back(std::make_unique<TgState>(tg_size));
    util::SpinBarrier global_barrier(nthreads);

    std::atomic<std::int64_t> tiles_executed{0};
    std::atomic<std::int64_t> barrier_episodes{0};
    std::atomic<std::int64_t> queue_wait_ns{0};
    std::atomic<std::int64_t> barrier_wait_ns{0};

    util::Timer timer;
    ThreadTeam::run(nthreads, [&](int tid) {
      const int g = tid / tg_size;
      const int rank = tid % tg_size;
      TgState& st = *groups[static_cast<std::size_t>(g)];
      const TgSlot slot = TgSlot::from_rank(rank, shape);
      const Chunk xc = split_range(nx, shape.tx, slot.rx);
      std::int64_t local_barriers = 0;
      std::int64_t local_queue_ns = 0;
      std::int64_t local_barrier_ns = 0;

      auto exec_tile = [&](long ti) {
        const tiling::TileCoord tile = dt.tiles()[static_cast<std::size_t>(ti)];
        traverse_tile(
            dt, tile, p_.bz, nz, shape, slot,
            [&](kernels::Comp comp, int /*s*/, int y0, int y1, int z) {
              kernels::update_comp_rows(fs, comp, xc.begin, xc.end, y0, y1, z);
            },
            [&] {
              ++local_barriers;
              // A one-thread group's barrier never waits: count the
              // episode without reading the clock twice.
              if (tg_size == 1) return;
              util::Timer bt;
              st.barrier.arrive_and_wait();
              local_barrier_ns += static_cast<std::int64_t>(bt.seconds() * 1e9);
            });
        // All group members must finish the tile before it is published as
        // complete (the barrier also provides the release/acquire ordering
        // for the tile's field writes).
        st.barrier.arrive_and_wait();
      };

      if (p_.schedule == TileSchedule::FifoQueue) {
        // Each leader emits one engine.tiles span per run, from its first
        // tile to its exit, with its tile count as the arg: per-tile spans
        // would swamp the ring at MWD tile rates.  Armed-at-run-start is
        // sampled once; a mid-run arm simply misses this run's span.
        const bool trace_tiles = rank == 0 && obs::tracing_enabled();
        std::int64_t span_start = 0, span_tiles = 0;
        for (;;) {
          if (rank == 0) {
            util::Timer qt;
            const auto t = queue.pop();
            local_queue_ns += static_cast<std::int64_t>(qt.seconds() * 1e9);
            st.current.store(t ? static_cast<long>(*t) : -1, std::memory_order_release);
          }
          st.barrier.arrive_and_wait();
          const long ti = st.current.load(std::memory_order_acquire);
          if (ti < 0) break;
          if (trace_tiles && span_tiles++ == 0) span_start = obs::now_ns();
          exec_tile(ti);
          if (rank == 0) {
            queue.complete(static_cast<std::int32_t>(ti));
            tiles_executed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (span_tiles > 0) obs::emit_complete("engine.tiles", span_start, span_tiles);
      } else {
        // StaticWave: group g owns every num_tgs-th tile of each wavefront;
        // a global barrier separates wavefronts.
        for (const auto& [wb, we] : prep.waves) {
          for (std::size_t idx = wb + static_cast<std::size_t>(g); idx < we;
               idx += static_cast<std::size_t>(p_.num_tgs)) {
            exec_tile(static_cast<long>(idx));
            if (rank == 0) tiles_executed.fetch_add(1, std::memory_order_relaxed);
          }
          global_barrier.arrive_and_wait();
          if (rank == 0 && g == 0) ++local_barriers;
        }
      }
      barrier_episodes.fetch_add(local_barriers, std::memory_order_relaxed);
      queue_wait_ns.fetch_add(local_queue_ns, std::memory_order_relaxed);
      barrier_wait_ns.fetch_add(local_barrier_ns, std::memory_order_relaxed);
    });

    stats_.seconds = timer.seconds();
    stats_.steps = steps;
    stats_.lups = static_cast<std::int64_t>(L.interior().cells()) * steps;
    stats_.mlups = util::mlups(static_cast<std::int64_t>(L.interior().cells()), steps,
                               stats_.seconds);
    stats_.tiles_executed = tiles_executed.load();
    stats_.barrier_episodes = barrier_episodes.load();
    stats_.queue_wait_seconds = static_cast<double>(queue_wait_ns.load()) / 1e9;
    stats_.barrier_wait_seconds = static_cast<double>(barrier_wait_ns.load()) / 1e9;
    stats_.kernel_isa = kernels::row_isa();
  }

 private:
  /// Layout- and step-count-dependent schedule state, reused across runs.
  struct Prepared {
    int ny = 0;
    int nt = 0;
    std::unique_ptr<tiling::DiamondTiling> tiling;
    std::unique_ptr<tiling::TileDag> dag;
    std::unique_ptr<tiling::TileQueue> queue;
    // Static schedule: wavefront boundaries in the (wavefront-sorted) tile
    // list.  Tiles on one wavefront are mutually independent.
    std::vector<std::pair<std::size_t, std::size_t>> waves;
  };

  Prepared& prepare(int ny, int nt) {
    for (auto& entry : cache_) {
      if (entry->ny == ny && entry->nt == nt) return *entry;
    }
    auto prep = std::make_unique<Prepared>();
    prep->ny = ny;
    prep->nt = nt;
    prep->tiling = std::make_unique<tiling::DiamondTiling>(p_.dw, ny, nt);
    prep->dag = std::make_unique<tiling::TileDag>(*prep->tiling);
    prep->queue = std::make_unique<tiling::TileQueue>(*prep->dag);
    if (p_.schedule == TileSchedule::StaticWave) {
      const auto& tiles = prep->tiling->tiles();
      std::size_t begin = 0;
      while (begin < tiles.size()) {
        std::size_t end = begin;
        while (end < tiles.size() &&
               tiles[end].wavefront() == tiles[begin].wavefront()) {
          ++end;
        }
        prep->waves.emplace_back(begin, end);
        begin = end;
      }
    }
    // A sharded round sequence alternates at most (full chunk, final partial
    // chunk) per grid; four entries cover that with room for a re-layout.
    if (cache_.size() >= 4) cache_.erase(cache_.begin());
    cache_.push_back(std::move(prep));
    return *cache_.back();
  }

  MwdParams p_;
  std::vector<std::unique_ptr<Prepared>> cache_;
};

}  // namespace

std::unique_ptr<Engine> make_mwd_engine(const MwdParams& params) {
  return std::make_unique<MwdEngine>(params);
}

}  // namespace emwd::exec
