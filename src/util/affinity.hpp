// Thread -> cpu-set pinning (Linux sched affinity; no-op elsewhere).
//
// Child threads inherit the calling thread's mask, which is how whole
// engine thread teams stay on the cpus their owner was pinned to: the
// dist subsystem pins shard teams to NUMA nodes and the batch scheduler
// pins job executors to their resource slot before spawning the engine.
#pragma once

#include <vector>

namespace emwd::util {

/// Pin the calling thread to exactly `cpus` (logical ids).  Returns false
/// (affinity untouched) for an empty list, out-of-range ids only, or a
/// platform without sched affinity.
bool pin_current_thread(const std::vector<int>& cpus);

/// A thread's allowed-cpu list, for restoring after a pinned region (the
/// process may itself run under taskset/cgroup restrictions).
struct ThreadAffinity {
  std::vector<int> cpus;
  bool valid = false;
};

ThreadAffinity get_thread_affinity();
void restore_thread_affinity(const ThreadAffinity& saved);

/// The process's allowed-cpu list (its main thread's mask), which a thread
/// pinned to a slot can lend to work that should span the whole machine.
ThreadAffinity get_process_affinity();

/// RAII affinity scope: saves the calling thread's mask on construction and
/// restores it on destruction — including exceptional exits, so a throwing
/// job can never leak a pinned cpuset into a pooled executor thread (the
/// batch scheduler wraps every job run in one, and the sharded engine's
/// per-shard NUMA binding is built on it).
class ScopedAffinity {
 public:
  /// Save the current mask; restore it when the scope ends.
  ScopedAffinity() : saved_(get_thread_affinity()) {}

  /// Save the current mask, then pin to `cpus` (best effort; pinned()
  /// reports whether it took).  The saved mask is restored either way, so
  /// any pinning done inside the scope — by this ctor or by code running
  /// under it — is undone on exit.
  explicit ScopedAffinity(const std::vector<int>& cpus)
      : saved_(get_thread_affinity()), pinned_(pin_current_thread(cpus)) {}

  ~ScopedAffinity() { restore_thread_affinity(saved_); }

  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  bool pinned() const { return pinned_; }

  /// Keep whatever mask is current: skip the restore (for intentional
  /// thread-lifetime pins like the scheduler's executor slot pin).
  void release() { saved_.valid = false; }

 private:
  ThreadAffinity saved_;
  bool pinned_ = false;
};

}  // namespace emwd::util
