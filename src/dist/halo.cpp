#include "dist/halo.hpp"

#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace emwd::dist {

namespace {

/// Spin with backoff until `counter` (acquire) reaches `round`; returns the
/// seconds spent waiting.  The acquire pairs with the owner's release store,
/// ordering the owner's plane writes (post) or plane reads (pull-ack) before
/// whatever the caller does next.
double spin_until(const std::atomic<std::int64_t>& counter, std::int64_t round) {
  if (counter.load(std::memory_order_acquire) >= round) return 0.0;
  util::Timer timer;
  int spins = 0;
  while (counter.load(std::memory_order_acquire) < round) {
    if (++spins > 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }
  return timer.seconds();
}

}  // namespace

HaloExchange::HaloExchange(const Partitioner& part,
                           std::vector<grid::FieldSet*> shard_sets,
                           std::unique_ptr<Transport> transport)
    : part_(part), shards_(std::move(shard_sets)),
      transport_(transport ? std::move(transport) : make_local_transport()),
      stats_(static_cast<std::size_t>(part.num_shards())),
      posted_(static_cast<std::size_t>(part.num_shards())),
      consumed_lo_(static_cast<std::size_t>(part.num_shards())),
      consumed_hi_(static_cast<std::size_t>(part.num_shards())) {
  if (static_cast<int>(shards_.size()) != part_.num_shards()) {
    throw std::invalid_argument("HaloExchange: one FieldSet per shard required");
  }
}

void HaloExchange::reset_flow() {
  for (auto& c : posted_) c.v.store(0, std::memory_order_relaxed);
  for (auto& c : consumed_lo_) c.v.store(0, std::memory_order_relaxed);
  for (auto& c : consumed_hi_) c.v.store(0, std::memory_order_relaxed);
  // Per-run transport state (ring sequences, in-flight frames) must not
  // leak across runs of a reused engine.
  transport_->reset();
  if (export_down_.empty()) {
    const int K = part_.num_shards();
    // Zero-copy transports stage into their own storage (a mapped ring
    // slot, a wire) and never read HaloBuffer::data; skip the heap copy.
    const bool storage = transport_->wants_buffer_storage();
    export_down_.resize(static_cast<std::size_t>(K));
    export_up_.resize(static_cast<std::size_t>(K));
    for (int s = 0; s < K; ++s) {
      const ShardExtent& e = part_.shard(s);
      const std::size_t plane =
          static_cast<std::size_t>(shards_[static_cast<std::size_t>(s)]
                                       ->layout()
                                       .stride_z()) * 2;
      if (s > 0) {  // bottom owned planes become s-1's hi ghosts
        HaloBuffer& b = export_down_[static_cast<std::size_t>(s)];
        b.planes = part_.shard(s - 1).hi;
        b.src_k0 = e.to_local(e.z0);
        b.src_shard = s;
        b.dst_shard = s - 1;
        if (storage) {
          b.data.assign(plane * static_cast<std::size_t>(b.planes) *
                            static_cast<std::size_t>(kernels::kNumComps),
                        0.0);
        }
      }
      if (s + 1 < K) {  // top owned planes become s+1's lo ghosts
        HaloBuffer& b = export_up_[static_cast<std::size_t>(s)];
        b.planes = part_.shard(s + 1).lo;
        b.src_k0 = e.to_local(e.z1 - part_.shard(s + 1).lo);
        b.src_shard = s;
        b.dst_shard = s + 1;
        if (storage) {
          b.data.assign(plane * static_cast<std::size_t>(b.planes) *
                            static_cast<std::size_t>(kernels::kNumComps),
                        0.0);
        }
      }
    }
  }
}

void HaloExchange::post(int s, std::int64_t round, bool drain) {
  auto& c = posted_[static_cast<std::size_t>(s)].v;
  // Single writer per counter (shard s), so a plain monotonic check suffices.
  if (c.load(std::memory_order_relaxed) >= round) return;

  if (!drain) {
    OBS_SPAN("halo.post", s);
    exec::EngineStats& st = stats_[static_cast<std::size_t>(s)];
    // Buffer reuse: the consumer of round-1's snapshot must be done with it.
    // Free unless this shard is a full round ahead of a neighbor.
    double reuse_wait = 0.0;
    if (s > 0) {
      reuse_wait += spin_until(consumed_hi_[static_cast<std::size_t>(s - 1)].v, round - 1);
    }
    if (s + 1 < part_.num_shards()) {
      reuse_wait += spin_until(consumed_lo_[static_cast<std::size_t>(s + 1)].v, round - 1);
    }
    util::Timer copy;
    OBS_SPAN("halo.stage", s);
    const grid::FieldSet& mine = *shards_[static_cast<std::size_t>(s)];
    std::int64_t staged_planes = 0;
    if (s > 0) {
      transport_->stage(mine, export_down_[static_cast<std::size_t>(s)]);
      staged_planes += export_down_[static_cast<std::size_t>(s)].planes;
    }
    if (s + 1 < part_.num_shards()) {
      transport_->stage(mine, export_up_[static_cast<std::size_t>(s)]);
      staged_planes += export_up_[static_cast<std::size_t>(s)].planes;
    }
    const double stage_s = copy.seconds();
    const std::int64_t plane_bytes =
        static_cast<std::int64_t>(mine.layout().stride_z()) * 16;
    st.halo_exchange_seconds += stage_s;
    st.halo_stage_seconds += stage_s;
    st.halo_staged_bytes += staged_planes * kernels::kNumComps * plane_bytes;
    st.halo_wait_seconds += reuse_wait;
  }
  c.store(round, std::memory_order_release);
}

void HaloExchange::wait(int s, std::int64_t round, bool drain) {
  const ShardExtent& e = part_.shard(s);
  exec::EngineStats& st = stats_[static_cast<std::size_t>(s)];
  auto& my_lo = consumed_lo_[static_cast<std::size_t>(s)].v;
  auto& my_hi = consumed_hi_[static_cast<std::size_t>(s)].v;

  // Idempotence: sides whose counter already reached `round` were pulled by
  // an earlier (possibly partially failed) attempt.
  bool lo_done = e.lo == 0 || my_lo.load(std::memory_order_relaxed) >= round;
  bool hi_done = e.hi == 0 || my_hi.load(std::memory_order_relaxed) >= round;

  if (drain) {
    // Failure path: advance the counters so neighbors never stall on this
    // shard, touch no plane, never block.  The release keeps the counter
    // protocol uniform (donors acquire it before reusing a buffer).
    if (e.lo > 0 && my_lo.load(std::memory_order_relaxed) < round) {
      my_lo.store(round, std::memory_order_release);
    }
    if (e.hi > 0 && my_hi.load(std::memory_order_relaxed) < round) {
      my_hi.store(round, std::memory_order_release);
    }
    return;
  }

  OBS_SPAN("halo.wait", s);
  util::Timer episode;
  double copy_seconds = 0.0;
  double hidden_seconds = 0.0;
  std::int64_t planes = 0;
  int spins = 0;

  // Opportunistic pulls: take whichever neighbor posted first; a copy made
  // while the other neighbor has not posted yet is hidden behind a wait we
  // would have paid anyway.
  while (!lo_done || !hi_done) {
    bool progressed = false;
    if (!lo_done &&
        posted_[static_cast<std::size_t>(s - 1)].v.load(std::memory_order_acquire) >=
            round) {
      const bool other_pending =
          !hi_done &&
          posted_[static_cast<std::size_t>(s + 1)].v.load(std::memory_order_acquire) <
              round;
      util::Timer copy;
      OBS_SPAN("halo.unstage", s);
      transport_->unstage(*shards_[static_cast<std::size_t>(s)],
                          export_up_[static_cast<std::size_t>(s - 1)],
                          e.to_local(e.ext_z0()), e.lo);
      const double c = copy.seconds();
      copy_seconds += c;
      st.halo_unstage_seconds += c;
      if (other_pending) hidden_seconds += c;
      planes += e.lo;
      my_lo.store(round, std::memory_order_release);
      lo_done = true;
      progressed = true;
    }
    if (!hi_done &&
        posted_[static_cast<std::size_t>(s + 1)].v.load(std::memory_order_acquire) >=
            round) {
      const bool other_pending =
          !lo_done &&
          posted_[static_cast<std::size_t>(s - 1)].v.load(std::memory_order_acquire) <
              round;
      util::Timer copy;
      OBS_SPAN("halo.unstage", s);
      transport_->unstage(*shards_[static_cast<std::size_t>(s)],
                          export_down_[static_cast<std::size_t>(s + 1)],
                          e.to_local(e.z1), e.hi);
      const double c = copy.seconds();
      copy_seconds += c;
      st.halo_unstage_seconds += c;
      if (other_pending) hidden_seconds += c;
      planes += e.hi;
      my_hi.store(round, std::memory_order_release);
      hi_done = true;
      progressed = true;
    }
    if (!progressed && ++spins > 256) {
      std::this_thread::yield();
      spins = 0;
    }
  }

  const std::int64_t plane_bytes =
      static_cast<std::int64_t>(
          shards_[static_cast<std::size_t>(s)]->layout().stride_z()) * 16;
  st.halo_bytes_moved += planes * kernels::kNumComps * plane_bytes;
  st.halo_unstaged_bytes += planes * kernels::kNumComps * plane_bytes;
  st.halo_exchange_seconds += copy_seconds;
  st.halo_hidden_seconds += hidden_seconds;
  st.halo_wait_seconds += episode.seconds() - copy_seconds;
}

exec::EngineStats HaloExchange::take_stats() {
  exec::EngineStats sum;
  for (exec::EngineStats& st : stats_) {
    exec::accumulate_work(sum, st);
    st = exec::EngineStats{};
  }
  return sum;
}

std::int64_t HaloExchange::bytes_per_exchange() const { return bytes_per_exchange(part_); }

std::int64_t HaloExchange::bytes_per_exchange(const Partitioner& part) {
  std::int64_t planes = 0;
  for (const ShardExtent& e : part.shards()) planes += e.lo + e.hi;
  const std::int64_t plane_bytes =
      static_cast<std::int64_t>(grid::Layout({part.global().nx, part.global().ny, 1})
                                    .stride_z()) * 16;
  return planes * kernels::kNumComps * plane_bytes;
}

std::int64_t HaloExchange::max_shard_bytes_per_exchange(const Partitioner& part) {
  std::int64_t worst = 0;
  for (const ShardExtent& e : part.shards()) {
    worst = std::max<std::int64_t>(worst, e.lo + e.hi);
  }
  const std::int64_t plane_bytes =
      static_cast<std::int64_t>(grid::Layout({part.global().nx, part.global().ny, 1})
                                    .stride_z()) * 16;
  return worst * kernels::kNumComps * plane_bytes;
}

}  // namespace emwd::dist
