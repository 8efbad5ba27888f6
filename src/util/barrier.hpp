// Thread-group synchronization primitives.
//
// MWD thread groups synchronize once per half-step per wavefront position,
// which can be hundreds of thousands of times per run.  A centralized
// sense-reversing spin barrier keeps that cheap for the small group sizes
// (1..6 threads typically) used inside a tile, and falls back to yielding so
// oversubscribed runs (more threads than cores) still make progress.
#pragma once

#include <atomic>
#include <thread>

namespace emwd::util {

/// Sense-reversing centralized spin barrier for a fixed set of participants.
class SpinBarrier {
 public:
  explicit SpinBarrier(int participants) noexcept
      : participants_(participants), remaining_(participants), sense_(false) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block until all participants have arrived.  Safe to reuse immediately.
  void arrive_and_wait() noexcept {
    if (participants_ == 1) return;
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      remaining_.store(participants_, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      // Spin briefly, then yield: on an oversubscribed machine the partner
      // thread may need our core to make progress.
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins > 256) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }

 private:
  const int participants_;
  std::atomic<int> remaining_;
  std::atomic<bool> sense_;
};

}  // namespace emwd::util
