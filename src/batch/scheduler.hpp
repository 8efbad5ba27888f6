// batch::Scheduler — a thread-safe priority job queue drained by K
// concurrent executors on NUMA-partitioned resource slots.
//
// Submit Jobs, then wait_all() for the ordered result table.  Each executor
// is pinned to its ResourceManager slot (engine worker threads inherit the
// mask), sizes jobs whose config leaves threads == 0 to the slot's cpu
// count, resolves `auto` engine specs through the shared PlanCache and
// borrows engines/FieldSets from the shared EnginePool.  Execution is
// placement-only: per-job results are bit-exact with running the same
// config standalone, at any concurrency (batch_test asserts this).
//
// Lifecycle: construct (executors start), submit() any number of jobs,
// wait_all() exactly once (closes the queue, joins executors, returns
// results sorted by submission index).  cancel() may be called at any time
// from any thread — it atomically drains every job still in the queue into
// a `cancelled` result.  An executor CLAIMS a job by popping it under the
// same queue mutex, so the guarantee is exact: after cancel() returns, no
// job that was unclaimed at the moment of cancellation will ever run;
// claimed jobs (running, or popped an instant earlier) finish normally and
// the queue drains deadlock-free.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "batch/engine_pool.hpp"
#include "batch/job.hpp"
#include "batch/resource.hpp"
#include "util/timer.hpp"

namespace emwd::batch {

struct SchedulerConfig {
  /// Concurrent executors; 0 = one per resource slot.  More executors than
  /// slots time-slice (slot_for_executor wraps).
  int concurrency = 0;
  /// Resource slots to partition the machine into; 0 = one per NUMA domain.
  int slots = 0;
  /// Engine thread budget for jobs that leave config.threads == 0;
  /// 0 = the executor slot's cpu count.
  int threads_per_job = 0;
  /// Pin executors (and thus engine teams) to their slot's cpus.
  bool pin_slots = true;
  /// Idle-inventory bounds forwarded to EnginePool::set_max_idle: a
  /// long-lived scheduler (the emwdd daemon) keeps at most this many idle
  /// engines / FieldSets, LRU-evicting the rest.  <= 0 = unbounded.
  int max_idle_engines = 0;
  int max_idle_fields = 0;
  /// How often (in steps) a running job with a deadline or the preemptible
  /// flag pauses at a safe step boundary to check its deadline and poll its
  /// preempt flag — the latency bound of both.  Checkpointing jobs poll at
  /// min(preempt_check_every, checkpoint_every); a convergence job also at
  /// each of its checks.
  int preempt_check_every = 16;
  /// Host topology override for tests; unset = util::detect_host().
  std::optional<util::HostInfo> host;
};

/// Aggregate batch outcome: job counters, queue occupancy, pool/plan-cache
/// effectiveness and the merged engine stats of every completed job
/// (EngineStats::merge).  stats() fills every field under one lock, so the
/// snapshot is self-consistent: queued + running + completed + failed +
/// cancelled == submitted holds exactly, and queue_depth sums to queued.
struct BatchStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;  // ran to completion (ok)
  std::size_t failed = 0;     // threw
  std::size_t cancelled = 0;  // drained before starting
  std::size_t queued = 0;     // submitted, not yet claimed by an executor
  std::size_t running = 0;    // claimed, still executing
  /// Pending-queue depth per priority level (only levels with waiters).
  std::map<int, std::size_t> queue_depth;
  /// Preemption / checkpoint counters.  A preempted job moves back to
  /// `queued` (as a resumable continuation), so the occupancy identity
  /// above is unaffected; `preempted` counts preemption events, `resumed`
  /// counts continuations that started running again.
  std::size_t preempted = 0;
  std::size_t resumed = 0;
  std::size_t snapshots_written = 0;   // checkpoint files completed on disk
  std::int64_t snapshot_bytes = 0;     // serialized bytes across those files
  /// Failure-policy counters: executor attempts beyond each job's first
  /// (Job::retry), and corrupt snapshot files quarantined to *.bad during
  /// checkpoint recovery.
  std::size_t retries = 0;
  std::size_t quarantined = 0;
  EnginePool::Stats pool;
  PlanCache::Stats plans;
  int slots = 0;
  int executors = 0;
  exec::EngineStats engine;
};

class Scheduler {
 public:
  /// Called (serialized, on an executor thread) after every job finishes —
  /// including failed and cancelled ones.  `done`/`total` count finished vs
  /// submitted jobs at that moment.
  using ProgressFn =
      std::function<void(const JobResult&, std::size_t done, std::size_t total)>;

  explicit Scheduler(SchedulerConfig cfg = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a job; returns its submission index (its JobResult::index;
  /// also its slot in the wait_all() result vector when no job has a sink).
  /// Throws std::logic_error after wait_all().
  /// After cancel(), the job is recorded as cancelled without running.
  std::size_t submit(Job job);

  void set_progress(ProgressFn fn);

  /// Drain every still-queued (unclaimed) job into a cancelled JobResult.
  /// On return no unclaimed job can ever run; claimed jobs complete
  /// normally.  Idempotent.
  void cancel();

  /// Ask the running job with submission index `index` to preempt: it stops
  /// at its next safe step boundary, serializes its FieldSet to an
  /// in-memory snapshot, releases its engine/fields leases and executor
  /// slot, and re-enters the queue as a continuation that resumes
  /// bit-exactly (same or different slot).  Returns true when the signal
  /// was delivered — the job is currently running and opted in with
  /// Job::preemptible (convergence jobs never qualify).  Returns false for
  /// queued, finished, unknown or non-preemptible jobs.
  bool preempt(std::size_t index);

  /// Signal preemption to up to `max_count` running preemptible jobs whose
  /// priority is strictly below `priority` (lowest priority first).
  /// Returns the number signalled.  The serve daemon's auto-preemption path:
  /// a rejected-for-capacity high-priority submission frees slots this way.
  std::size_t preempt_lower_than(int priority, std::size_t max_count);

  /// Ask every running job that checkpoints (a fixed-step job with
  /// checkpoint_every > 0 and a path) to write one snapshot at its next safe
  /// boundary, regardless of cadence.  Returns the number of jobs signalled.
  std::size_t checkpoint_running();

  /// Close the queue, run everything to completion, join the executors and
  /// return the results of the jobs without a Job::sink, ordered by
  /// submission index (JobResult::index).  A sink job's result goes only to
  /// its sink.  Call exactly once.
  std::vector<JobResult> wait_all();

  BatchStats stats() const;
  const ResourceManager& resources() const { return resources_; }

 private:
  struct Entry {
    int priority = 0;
    std::size_t seq = 0;
    Job job;
  };

  /// Signalling surface of one claimed (running) job, registered under mu_
  /// for the lifetime of its run_job call.  Executors read the atomics at
  /// safe step boundaries; preempt()/checkpoint_running() set them.
  struct RunControl {
    std::atomic<bool> preempt{false};
    std::atomic<bool> checkpoint{false};
    int priority = 0;
    bool preemptible = false;     // fixed-step and Job::preemptible
    bool can_checkpoint = false;  // fixed-step, checkpoint_every > 0 with a path
  };

  /// What one executor attempt produced: either a finished result, or a
  /// continuation to re-queue (the preemption path — `result` is then
  /// discarded except for its accounting fields).
  struct RunOutcome {
    JobResult result;
    std::optional<Job> continuation;
    std::int64_t snapshots_written = 0;
    std::int64_t snapshot_bytes = 0;
  };

  void executor_loop(int executor_id);
  /// Drive one job to a final outcome: run attempts (run_attempt) until one
  /// succeeds, parks as a continuation, fails permanently, exceeds the
  /// deadline, or exhausts Job::retry — backing off (deterministic seeded
  /// jitter) and recovering from the newest valid checkpoint between
  /// transient failures.
  RunOutcome run_job(Job&& job, std::size_t seq, int slot_id, RunControl& control);
  /// One executor attempt.  `clock` spans the whole run_job call — it is the
  /// job's deadline budget and total wall-clock record.
  RunOutcome run_attempt(Job& job, std::size_t seq, int slot_id, RunControl& control,
                         const util::Timer& clock);
  void finish_result(JobResult&& result, const std::function<void(const JobResult&)>& sink);

  SchedulerConfig cfg_;
  ResourceManager resources_;
  PlanCache plan_cache_;
  EnginePool pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Entry> queue_;  // max-heap by (priority, -seq)
  std::map<std::size_t, std::shared_ptr<RunControl>> running_jobs_;  // by seq
  std::vector<JobResult> results_;  // finished sink-less jobs, in finish order
  std::size_t done_ = 0;
  std::size_t running_ = 0;  // claimed by an executor, not yet finished
  bool cancelled_ = false;
  bool closing_ = false;
  bool joined_ = false;
  BatchStats stats_;

  // Recursive: cancel() may legally be called from inside the progress
  // callback (run_sweep's cancellation path); the drained jobs' progress
  // notifications then nest on the same thread instead of deadlocking.
  std::recursive_mutex progress_mu_;
  ProgressFn progress_;
  // Mirrors progress_ being set, readable without progress_mu_: the
  // no-observer fast path of finish_result skips the JobResult snapshot.
  std::atomic<bool> has_progress_{false};

  std::vector<std::thread> executors_;
};

}  // namespace emwd::batch
