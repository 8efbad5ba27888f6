#include "dist/sharded_engine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "dist/halo.hpp"
#include "dist/numa.hpp"
#include "dist/partition.hpp"
#include "exec/thread_pool.hpp"
#include "grid/fieldset.hpp"
#include "util/affinity.hpp"
#include "util/timer.hpp"

namespace emwd::dist {

std::string ShardedParams::describe() const {
  std::ostringstream os;
  os << "sharded{K=" << num_shards << ",T=" << exchange_interval;
  if (inners.size() == 1) {
    os << ",inner=" << exec::to_string(inners.front());
  } else {
    for (std::size_t i = 0; i < inners.size(); ++i) {
      os << ",inner" << i << "=" << exec::to_string(inners[i]);
    }
  }
  os << ",tps=" << threads_per_shard << (numa_bind ? ",numa" : "");
  if (transport != "local") os << ",transport=" << transport;
  os << "}";
  return os.str();
}

namespace {

/// Binds the current thread to a shard's NUMA node for the scope — a thin
/// wrapper over util::ScopedAffinity, which restores the saved mask on any
/// exit including exceptional ones (ThreadTeam's tid 0 runs on the caller
/// thread, which must not stay pinned after a throw).
class ScopedNodeBinding {
 public:
  ScopedNodeBinding(bool enable, const NumaTopology& topo, int shard, int num_shards) {
    if (enable) {
      bind_current_thread_to_node(topo, node_for_shard(topo, shard, num_shards));
    }
  }

 private:
  util::ScopedAffinity guard_;  // saved before the bind above runs
};

class ShardedEngine final : public exec::Engine {
 public:
  explicit ShardedEngine(const ShardedParams& p)
      : p_(p), registry_(p.registry ? *p.registry : exec::EngineRegistry::global()) {
    if (p.num_shards < 1) {
      throw std::invalid_argument("ShardedParams: num_shards must be >= 1");
    }
    if (p.exchange_interval < 1) {
      throw std::invalid_argument("ShardedParams: exchange_interval must be >= 1");
    }
    if (p.threads_per_shard < 1) {
      throw std::invalid_argument("ShardedParams: threads_per_shard must be >= 1");
    }
    if (p.inners.empty()) {
      throw std::invalid_argument("ShardedParams: inners must name an engine spec");
    }
    // Validate the transport name and build each distinct inner spec once
    // here, on the caller thread: a build throwing inside a shard thread is
    // recoverable (run() rethrows it) but an early error message beats a
    // mid-run failure.  The transport registry lookup (not a construction)
    // keeps its error's list of registered names the single source of truth.
    require_transport(p.transport);
    for (auto it = p.inners.begin(); it != p.inners.end(); ++it) {
      if (std::find(p.inners.begin(), it, *it) != it) continue;
      exec::BuildContext ctx;
      ctx.threads = p.threads_per_shard;
      (void)registry_.build(*it, ctx);
    }
  }

  std::string name() const override { return p_.describe(); }
  int threads() const override { return p_.threads(); }

  /// Build (or rebuild, when the extents changed) the cached layout state
  /// for grids of interior extents `e`: the partition and the inners.  A
  /// no-op for unchanged extents.
  void prepare(const grid::Extents& e) {
    if (prepared_ && prepared_->extents == e) return;
    prepared_.reset();
    auto st = std::make_unique<PreparedState>();
    st->extents = e;
    const int K = Partitioner::clamp_shards(e.nz, p_.num_shards, p_.exchange_interval);
    const int overlap = (K > 1) ? p_.exchange_interval : 1;
    st->part = std::make_unique<Partitioner>(e, K, overlap);
    st->topo = p_.numa_bind ? NumaTopology::detect() : NumaTopology::single_node(p_.threads());
    st->inners.resize(static_cast<std::size_t>(K));
    exec::ThreadTeam::run(K, [&](int s) {
      const ScopedNodeBinding binding(p_.numa_bind, st->topo, s, K);
      // Each inner sees the grid it runs on: the shard's extended extents.
      exec::BuildContext ctx;
      ctx.grid = st->part->shard_layout(s).interior();
      ctx.threads = p_.threads_per_shard;
      const std::size_t spec =
          std::min(static_cast<std::size_t>(s), p_.inners.size() - 1);
      st->inners[static_cast<std::size_t>(s)] = registry_.build(p_.inners[spec], ctx);
    });
    prepared_ = std::move(st);
  }

  void run(grid::FieldSet& fs, int steps) override {
    const grid::Layout& L = fs.layout();
    prepare(L.interior());
    PreparedState& st = *prepared_;
    const Partitioner& part = *st.part;
    const int K = part.num_shards();

    // A set split onto this engine's shard sets holds its values there, so
    // the run goes straight to the rounds.  Any other set is joined (if
    // other parts hold its values), scattered and, after the run, split
    // onto the shard sets.
    const bool resident = st.bundle && fs.parts() == st.bundle.get();
    if (!resident) {
      fs.join();
      take_bundle(st);
    }

    std::vector<exec::EngineStats> shard_work(static_cast<std::size_t>(K));
    st.halo->reset_flow();  // single-threaded: no shard thread is running yet

    // Failure protocol: a shard that throws (scatter, halo wait, inner step
    // or halo post) records the first exception, raises `failed`, and keeps
    // walking the SAME round schedule as everyone else with the work
    // skipped — the schedule depends only on `steps`.  Every post/wait
    // counter of the failed shard still advances (the drain form of
    // HaloExchange::post/wait), so no neighbor can be left spinning on it.
    // The exception is rethrown on the caller once every shard thread has
    // joined.
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    const auto record_failure = [&]() {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_release);
    };

    util::Timer timer;
    exec::ThreadTeam::run(K, [&](int s) {
      const ScopedNodeBinding binding(p_.numa_bind, st.topo, s, K);

      grid::FieldSet& local = *st.bundle->parts[static_cast<std::size_t>(s)].set;
      exec::Engine& inner = *st.inners[static_cast<std::size_t>(s)];
      exec::EngineStats& work = shard_work[static_cast<std::size_t>(s)];

      // A shard's scatter reads the caller's set and writes only its own
      // FieldSet, and the rounds touch nothing else of it, so no shard
      // waits for the others' scatter.
      if (!resident) {
        try {
          part.scatter(fs, local, s);
        } catch (...) {
          record_failure();
        }
      }
      run_rounds(*st.halo, s, steps, resident, inner, local, work, failed, record_failure);
    });
    const double seconds = timer.seconds();
    // Taken even from a failed run, so its counts never reach the next one.
    const exec::EngineStats halo = st.halo->take_stats();
    // Split even after a failure: the values are unspecified then, and the
    // set reads them from the shard sets like any others.
    if (!resident) fs.split(st.bundle);

    // Clear before the rethrow so a caller that catches and inspects
    // stats() never sees a previous successful run's numbers.
    stats_ = exec::EngineStats{};
    if (first_error) std::rethrow_exception(first_error);

    // shard_work holds the inners' counters; the exchanger holds the halo's.
    for (const auto& work : shard_work) exec::accumulate_work(stats_, work);
    exec::accumulate_work(stats_, halo);
    stats_.seconds = seconds;
    stats_.steps = steps;
    stats_.shards = K;
    stats_.halo_transport = p_.transport;
    stats_.mlups = util::mlups(static_cast<std::int64_t>(L.interior().cells()), steps,
                               stats_.seconds);
  }

 private:
  /// One shard's round loop (the post/wait protocol, see halo.hpp): wait
  /// for the previous round's ghost planes, run the inner engine for one
  /// round, post this round's boundary planes.  A shard synchronizes with
  /// its <= 2 neighbors only, and never at a full stop.  A `resident` run
  /// starts from the shard sets the previous run left: owned planes exact,
  /// ghost planes stale by up to one round, since the last round posts
  /// nothing.  So it posts first, and its first compute waits for that
  /// exchange, as it would after a scatter's fresh ghosts.
  void run_rounds(HaloExchange& halo, int s, int steps, bool resident, exec::Engine& inner,
                  grid::FieldSet& local, exec::EngineStats& work,
                  std::atomic<bool>& failed,
                  const std::function<void()>& record_failure) {
    // Publish a round's planes — in drain form once the run is failing, so
    // the neighbors' waits always terminate.  stage() may throw (fault
    // injection, a transport's ring/peer deadline): record it and re-post
    // in drain form — post is idempotent per round, so the counter still
    // advances and neighbors never stall on us.
    const auto post = [&](std::int64_t round) {
      try {
        halo.post(s, round, failed.load(std::memory_order_acquire));
      } catch (...) {
        record_failure();
        halo.post(s, round, /*drain=*/true);
      }
    };
    std::int64_t round = 0;
    if (resident && steps > 0) post(++round);
    int remaining = steps;
    while (remaining > 0) {
      const int chunk = std::min(p_.exchange_interval, remaining);
      ++round;
      if (!failed.load(std::memory_order_acquire)) {
        try {
          if (round > 1) halo.wait(s, round - 1);
          inner.run(local, chunk);
          exec::accumulate_work(work, inner.stats());
        } catch (...) {
          record_failure();
        }
      }
      // A wait that was skipped, or died between its two pulls, completes
      // here in drain form: the counters advance without touching planes,
      // so neighbors cannot stall on us.  After a clean wait this is a
      // no-op (wait is idempotent per round).
      if (round > 1) halo.wait(s, round - 1, /*drain=*/true);
      remaining -= chunk;
      if (remaining == 0) break;
      post(round);
    }
  }

  /// Layout-dependent state reused across run() calls (see prepare() and
  /// take_bundle()).
  struct PreparedState {
    grid::Extents extents{};
    std::unique_ptr<Partitioner> part;
    NumaTopology topo;
    std::vector<std::unique_ptr<exec::Engine>> inners;
    /// The shard sets, one part per shard, shared with the set they split.
    std::shared_ptr<grid::FieldParts> bundle;
    std::unique_ptr<HaloExchange> halo;  // exchanges between bundle's sets
  };

  /// Make st.bundle shard sets this run may write: the kept ones, unless a
  /// set still reads them.  Then a new bundle replaces them, each shard's
  /// FieldSet allocated and zero-filled from a thread bound to the shard's
  /// NUMA node (first touch, so the pages land there), with an exchanger
  /// rebuilt on it.  The set holding the old bundle keeps it alive.
  void take_bundle(PreparedState& st) {
    if (st.bundle && st.bundle->holders.load(std::memory_order_acquire) == 0) return;
    const Partitioner& part = *st.part;
    const int K = part.num_shards();
    auto bundle = std::make_shared<grid::FieldParts>();
    bundle->parts.resize(static_cast<std::size_t>(K));
    exec::ThreadTeam::run(K, [&](int s) {
      const ScopedNodeBinding binding(p_.numa_bind, st.topo, s, K);
      const ShardExtent& e = part.shard(s);
      grid::FieldParts::Part& p = bundle->parts[static_cast<std::size_t>(s)];
      p.set = std::make_unique<grid::FieldSet>(part.shard_layout(s));
      p.z0 = e.z0;
      p.z1 = e.z1;
      p.first = e.ext_z0();
    });
    std::vector<grid::FieldSet*> sets;
    for (const grid::FieldParts::Part& p : bundle->parts) sets.push_back(p.set.get());
    st.halo = std::make_unique<HaloExchange>(part, sets, make_transport(p_.transport));
    st.bundle = std::move(bundle);
  }

  ShardedParams p_;
  const exec::EngineRegistry& registry_;
  std::unique_ptr<PreparedState> prepared_;
};

}  // namespace

std::unique_ptr<exec::Engine> make_sharded_engine(const ShardedParams& params) {
  return std::make_unique<ShardedEngine>(params);
}

}  // namespace emwd::dist
