#include "batch/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exec/engine_spec.hpp"
#include "fault/inject.hpp"
#include "io/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/affinity.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace emwd::batch {

/// Max-heap order for std::push_heap/pop_heap: higher priority first, ties
/// in submission order (larger seq compares "smaller").
struct SchedulerEntryLess {
  bool operator()(const auto& a, const auto& b) const {
    return a.priority < b.priority || (a.priority == b.priority && a.seq > b.seq);
  }
};

Scheduler::Scheduler(SchedulerConfig cfg)
    : cfg_(std::move(cfg)),
      // Default slot count: one per requested executor (so side-by-side
      // jobs get private cpu subsets even within one NUMA node), or one per
      // NUMA domain when concurrency is defaulted too.  ResourceManager
      // clamps to the cpu count.
      resources_(cfg_.host ? *cfg_.host : util::detect_host(),
                 cfg_.slots > 0 ? cfg_.slots
                                : (cfg_.concurrency > 0 ? cfg_.concurrency : 0)) {
  const int executors =
      cfg_.concurrency > 0 ? cfg_.concurrency : resources_.num_slots();
  stats_.slots = resources_.num_slots();
  stats_.executors = executors;
  pool_.set_max_idle(cfg_.max_idle_engines, cfg_.max_idle_fields);
  executors_.reserve(static_cast<std::size_t>(executors));
  for (int i = 0; i < executors; ++i) {
    executors_.emplace_back([this, i] { executor_loop(i); });
  }
}

Scheduler::~Scheduler() {
  if (!joined_) {
    cancel();
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : executors_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
}

std::size_t Scheduler::submit(Job job) {
  std::size_t seq = 0;
  bool drop = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closing_) throw std::logic_error("batch::Scheduler: submit after wait_all");
    seq = stats_.submitted++;
    if (cancelled_) {
      drop = true;  // record outside the lock, consistent with cancel()
    } else {
      queue_.push_back(Entry{job.priority, seq, std::move(job)});
      std::push_heap(queue_.begin(), queue_.end(), SchedulerEntryLess{});
    }
  }
  if (drop) {
    finish_result(cancelled_result(job, seq), job.sink);
  } else {
    cv_work_.notify_one();
  }
  return seq;
}

void Scheduler::set_progress(ProgressFn fn) {
  std::lock_guard<std::recursive_mutex> lock(progress_mu_);
  progress_ = std::move(fn);
  has_progress_.store(static_cast<bool>(progress_), std::memory_order_relaxed);
}

void Scheduler::cancel() {
  std::vector<Entry> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    drained = std::move(queue_);
    queue_.clear();
  }
  // From here no executor can claim work (claiming pops under the same
  // mutex, and the queue is now empty); jobs claimed earlier — running, or
  // popped an instant before this drain — complete normally.
  cv_work_.notify_all();
  for (Entry& e : drained) finish_result(cancelled_result(e.job, e.seq), e.job.sink);
}

std::vector<JobResult> Scheduler::wait_all() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (joined_) throw std::logic_error("batch::Scheduler: wait_all called twice");
    closing_ = true;
    cv_work_.notify_all();
    cv_done_.wait(lock, [&] { return done_ == stats_.submitted; });
  }
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
  joined_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobResult> out = std::move(results_);
  std::sort(out.begin(), out.end(),
            [](const JobResult& a, const JobResult& b) { return a.index < b.index; });
  return out;
}

bool Scheduler::preempt(std::size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = running_jobs_.find(index);
  if (it == running_jobs_.end() || !it->second->preemptible) return false;
  it->second->preempt.store(true, std::memory_order_relaxed);
  return true;
}

std::size_t Scheduler::preempt_lower_than(int priority, std::size_t max_count) {
  std::lock_guard<std::mutex> lock(mu_);
  // Lowest priority victims first: collect, sort, signal.
  std::vector<std::pair<int, RunControl*>> victims;
  for (auto& [seq, control] : running_jobs_) {
    if (control->preemptible && control->priority < priority &&
        !control->preempt.load(std::memory_order_relaxed)) {
      victims.emplace_back(control->priority, control.get());
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t signalled = 0;
  for (auto& [prio, control] : victims) {
    if (signalled == max_count) break;
    control->preempt.store(true, std::memory_order_relaxed);
    ++signalled;
  }
  return signalled;
}

std::size_t Scheduler::checkpoint_running() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t signalled = 0;
  for (auto& [seq, control] : running_jobs_) {
    if (control->can_checkpoint) {
      control->checkpoint.store(true, std::memory_order_relaxed);
      ++signalled;
    }
  }
  return signalled;
}

BatchStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BatchStats out = stats_;
  // Occupancy is read under the same mutex that claims and finishes jobs,
  // so the identity queued + running + done == submitted holds exactly in
  // every snapshot (the serve daemon's Status endpoint relies on it).
  out.queued = queue_.size();
  out.running = running_;
  for (const Entry& e : queue_) ++out.queue_depth[e.priority];
  out.pool = pool_.stats();
  out.plans = plan_cache_.stats();
  return out;
}

void Scheduler::executor_loop(int executor_id) {
  const int slot_id = resources_.slot_for_executor(executor_id);
  if (cfg_.pin_slots) {
    // Best effort; engine worker threads inherit the mask.
    util::pin_current_thread(resources_.slot(slot_id).cpus);
  }
  for (;;) {
    Entry entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] { return closing_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (closing_) return;
        continue;
      }
      std::pop_heap(queue_.begin(), queue_.end(), SchedulerEntryLess{});
      entry = std::move(queue_.back());
      queue_.pop_back();
      ++running_;  // claimed under the same lock; finish_result undoes it
      if (entry.job.resume_blob || !entry.job.resume_from.empty()) ++stats_.resumed;
    }
    auto sink = entry.job.sink;
    // Register the claim's signalling surface so preempt()/
    // checkpoint_running() can reach this job while it runs.
    auto control = std::make_shared<RunControl>();
    control->priority = entry.priority;
    // Only fixed-step jobs can resume, so only they park or checkpoint.
    const bool fixed_steps = entry.job.converge_tol == 0.0;
    control->preemptible = fixed_steps && entry.job.preemptible;
    control->can_checkpoint = fixed_steps && entry.job.checkpoint_every > 0 &&
                              !entry.job.checkpoint_path.empty();
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_jobs_[entry.seq] = control;
    }
    RunOutcome out;
    {
      // A job may repin this executor (sharded NUMA binding, user setup
      // code); restore the slot mask after every job — throwing included —
      // so one job's cpuset never leaks into the next job on this thread.
      util::ScopedAffinity affinity_guard;
      out = run_job(std::move(entry.job), entry.seq, slot_id, *control);
    }
    bool requeued = false;
    bool cancelled_continuation = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_jobs_.erase(entry.seq);
      stats_.snapshots_written += static_cast<std::size_t>(out.snapshots_written);
      stats_.snapshot_bytes += out.snapshot_bytes;
      if (out.continuation) {
        // The preemption path: the job goes back to `queued` as a
        // resumable continuation under its original seq, so the occupancy
        // identity holds and the (priority, seq) heap order lets it resume
        // ahead of later same-priority submissions.  After cancel() the
        // queue must stay empty — finish it as cancelled instead.
        ++stats_.preempted;
        --running_;
        if (cancelled_) {
          cancelled_continuation = true;
        } else {
          queue_.push_back(
              Entry{out.continuation->priority, entry.seq, std::move(*out.continuation)});
          std::push_heap(queue_.begin(), queue_.end(), SchedulerEntryLess{});
          requeued = true;
        }
      }
    }
    if (requeued) {
      cv_work_.notify_one();
      continue;
    }
    if (cancelled_continuation) {  // running_ already decremented
      finish_result(cancelled_result(*out.continuation, entry.seq), sink);
      continue;
    }
    finish_result(std::move(out.result), sink);
  }
}

Scheduler::RunOutcome Scheduler::run_job(Job&& job, std::size_t seq, int slot_id,
                                         RunControl& control) {
  // The submission index is the trace correlation id: every span this
  // executor (and, via ThreadTeam, the engine workers and snapshot writer)
  // records while the job runs carries args.job == seq.
  obs::ScopedCorrelation correlation(static_cast<std::int64_t>(seq));
  OBS_SPAN("sched.job", static_cast<std::int64_t>(seq));
  const int max_attempts = std::max(1, job.retry.max_attempts);
  util::Timer clock;  // spans every attempt: deadline budget + total wall clock
  // Jitter stream depends only on the submission index, so two identical
  // batches back off identically regardless of thread timing.
  util::Xoshiro256 jitter_rng(0x9e3779b97f4a7c15ull ^
                              (static_cast<std::uint64_t>(seq) * 0xff51afd7ed558ccdull));
  std::int64_t snaps = 0;
  std::int64_t snap_bytes = 0;
  int quarantined = 0;
  for (int attempt = 1;; ++attempt) {
    RunOutcome out = run_attempt(job, seq, slot_id, control, clock);
    snaps += out.snapshots_written;
    snap_bytes += out.snapshot_bytes;
    quarantined += out.result.quarantined;
    out.snapshots_written = snaps;
    out.snapshot_bytes = snap_bytes;
    out.result.quarantined = quarantined;
    out.result.attempts = attempt;
    if (out.continuation) return out;  // preempted: the continuation carries on
    const bool retryable = !out.result.ok && out.result.error_class == "transient" &&
                           attempt < max_attempts;
    if (!retryable) {
      out.result.wall_seconds = clock.seconds();
      return out;
    }
    bool give_up = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      give_up = cancelled_;  // a cancelled batch stops burning retries
      if (!give_up) ++stats_.retries;
    }
    if (give_up) {
      out.result.wall_seconds = clock.seconds();
      return out;
    }
    OBS_INSTANT("sched.retry", attempt);
    // Checkpoint-aware recovery: point the retry at the head of this job's
    // rotation chain.  The attempt's resume walk picks the newest valid
    // snapshot (quarantining corrupt rotations), so the retry repeats as few
    // steps as possible, or starts from scratch when nothing valid is left.
    // A parked in-RAM blob (preemption) stays authoritative.
    job.prior_snapshots = out.result.snapshots;
    if (!job.resume_blob && control.can_checkpoint) job.resume_from = job.checkpoint_path;
    // Exponential backoff with deterministic jitter, clamped to whatever
    // deadline budget remains (the next attempt's entry check then reports
    // "deadline" rather than sleeping past it).
    double delay = job.retry.backoff_seconds;
    for (int i = 1; i < attempt; ++i) delay *= job.retry.backoff_multiplier;
    delay = std::min(delay, job.retry.max_backoff_seconds);
    if (job.retry.jitter > 0.0) {
      delay *= 1.0 + job.retry.jitter * (2.0 * jitter_rng.uniform() - 1.0);
    }
    if (job.deadline_seconds > 0.0) {
      delay = std::min(delay, std::max(0.0, job.deadline_seconds - clock.seconds()));
    }
    if (delay > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

Scheduler::RunOutcome Scheduler::run_attempt(Job& job, std::size_t seq, int slot_id,
                                             RunControl& control,
                                             const util::Timer& clock) {
  RunOutcome out;
  JobResult& r = out.result;
  r.index = seq;
  r.name = job_label(job, seq);
  r.slot = slot_id;
  r.preemptions = job.prior_preemptions;
  r.snapshots = job.prior_snapshots;
  OBS_SPAN("sched.attempt", static_cast<std::int64_t>(seq));
  util::Timer timer;

  // Deadline: the budget covers the whole run_job call (all attempts).
  // Checked here at attempt entry and below at every safe step boundary, so
  // enforcement latency is bounded by preempt_check_every steps (and by
  // check_every for a convergence job).
  auto check_deadline = [&] {
    if (job.deadline_seconds > 0.0 && clock.seconds() >= job.deadline_seconds) {
      throw DeadlineExceeded(r.name, job.deadline_seconds);
    }
  };

  EnginePool::EngineLease engine_lease;
  EnginePool::FieldsLease fields_lease;
  try {
    check_deadline();
    thiim::SimulationConfig cfg = job.config;
    if (cfg.threads <= 0) {
      cfg.threads = cfg_.threads_per_job > 0
                        ? cfg_.threads_per_job
                        : static_cast<int>(resources_.slot(slot_id).cpus.size());
    }
    r.threads = cfg.threads;

    // Resolve any `auto` once per (spec, shape, threads) via the PlanCache,
    // so the pool key below is concrete and later same-shape jobs skip the
    // tuner entirely.
    exec::BuildContext ctx;
    ctx.grid = cfg.grid;
    ctx.threads = cfg.threads;
    const exec::EngineSpec spec = plan_cache_.resolve(cfg.spec(), ctx, &r.plan_cache_hit);
    r.engine_spec = exec::to_string(spec);
    cfg.engine_spec = r.engine_spec;

    fault::maybe_fail("sched.acquire");
    engine_lease = pool_.acquire_engine(spec, ctx);
    fields_lease = pool_.acquire_fields(cfg.grid);
    r.engine_reused = engine_lease.reused;
    thiim::Simulation sim(cfg, thiim::BorrowedState{engine_lease.engine.get(),
                                                    fields_lease.fields.get()});
    if (job.setup) {
      job.setup(sim, job);
    } else {
      sim.finalize();
    }

    // Resume: fields + step counter come from the snapshot; coefficients
    // and sources were just rebuilt by setup (which must therefore be
    // deterministic — same geometry and sources as the original attempt).
    if (job.resume_blob || !job.resume_from.empty()) {
      if (job.converge_tol > 0.0) {
        throw std::invalid_argument(
            "batch: resume_from requires a fixed-step job (converge_tol == 0)");
      }
      if (job.resume_blob) {
        std::istringstream is(*job.resume_blob, std::ios::binary);
        sim.restore_snapshot(is);
        r.resumed = true;
      } else {
        // Vet the rotation chain before restoring: corrupt files are
        // quarantined to *.bad and the next-older rotation wins; when
        // nothing valid is left the job starts from scratch rather than
        // failing on a checkpoint it merely used to have.
        std::vector<std::string> bad;
        const std::string valid = io::find_latest_valid_snapshot(
            job.resume_from, job.checkpoint_keep, &bad);
        r.quarantined += static_cast<int>(bad.size());
        if (!bad.empty()) {
          std::lock_guard<std::mutex> lock(mu_);
          stats_.quarantined += bad.size();
        }
        if (!valid.empty()) {
          sim.restore_snapshot_file(valid);
          r.resumed = true;
        }
      }
    }

    // One boundary hook per job at one poll cadence: the deadline for every
    // job, checkpoint cadence and preemption for fixed-step jobs (only those
    // have a writer or can see the preempt flag).
    const int poll = cfg_.preempt_check_every > 0 ? cfg_.preempt_check_every : 16;
    int hook_every = control.can_checkpoint ? job.checkpoint_every : 0;
    if (control.preemptible || job.deadline_seconds > 0.0) {
      hook_every = hook_every > 0 ? std::min(hook_every, poll) : poll;
    }
    std::unique_ptr<io::SnapshotWriter> writer;
    int next_ckpt = 0;
    if (control.can_checkpoint) {
      writer = std::make_unique<io::SnapshotWriter>(sim.fields().layout());
      next_ckpt = (sim.steps_done() / job.checkpoint_every + 1) * job.checkpoint_every;
    }
    int local_snapshots = 0;
    bool preempt_hit = false;
    sim.set_step_hook(hook_every, [&](int steps_done) {
      check_deadline();
      if (writer) {
        bool snap = control.checkpoint.exchange(false, std::memory_order_relaxed);
        if (steps_done >= next_ckpt) {
          snap = true;
          next_ckpt = (steps_done / job.checkpoint_every + 1) * job.checkpoint_every;
        }
        if (snap) {
          writer->capture(sim.fields(), sim.snapshot_info(), job.checkpoint_path,
                          job.checkpoint_keep);
          ++local_snapshots;
        }
      }
      preempt_hit = control.preempt.load(std::memory_order_relaxed);
      return !preempt_hit;
    });

    if (job.converge_tol > 0.0) {
      r.converged_change = sim.run_until_converged(
          job.converge_tol, job.max_steps > 0 ? job.max_steps : job.steps,
          job.check_every);
    } else {
      sim.run(std::max(0, job.steps - sim.steps_done()));
    }
    r.snapshots += local_snapshots;
    if (writer) {
      // Settle the async writes so the reported stats are final and any
      // write error fails the job here, not silently.
      writer->wait_idle();
      const io::SnapshotWriter::Stats ws = writer->stats();
      out.snapshots_written += ws.written;
      out.snapshot_bytes += ws.bytes_written;
    }

    if (preempt_hit) {
      OBS_INSTANT("sched.preempt", static_cast<std::int64_t>(seq));
      // Park the state in RAM and hand back a continuation.  Serializing
      // happens at a step boundary (the engine is between runs), so the
      // leases can be returned to the pool for the preemptor to reuse.
      out.continuation = Job();
      Job& cont = *out.continuation;
      cont = std::move(job);
      cont.config.engine_spec = r.engine_spec;  // pin: skip re-tuning on resume
      cont.resume_blob = std::make_shared<const std::string>(
          io::snapshot_to_string(sim.fields(), sim.snapshot_info()));
      cont.resume_from.clear();  // the blob supersedes any file
      cont.prior_preemptions = r.preemptions + 1;
      cont.prior_snapshots = r.snapshots;
      pool_.release_engine(std::move(engine_lease));
      pool_.release_fields(std::move(fields_lease));
      r.wall_seconds = timer.seconds();
      return out;
    }

    r.steps_done = sim.steps_done();
    r.total_energy = sim.total_energy();
    r.electric_energy = sim.electric_energy();
    r.absorption = sim.absorption_by_material();
    r.stats = sim.last_stats();
    r.engine_name = sim.engine().name();
    r.ok = true;
    pool_.release_engine(std::move(engine_lease));
    pool_.release_fields(std::move(fields_lease));
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
    r.error_class = classify_error(e);
    // The engine's internal state is unspecified after a throw: drop the
    // lease (destroying the engine) instead of recycling it.  The FieldSet
    // is safe to recycle — borrows always clear_all() first.
    pool_.release_fields(std::move(fields_lease));
  }
  r.wall_seconds = timer.seconds();
  return out;
}

void Scheduler::finish_result(JobResult&& result,
                              const std::function<void(const JobResult&)>& sink) {
  // The snapshot deep-copies the result (absorption vector, strings); skip
  // it on the common no-observer path so the mutex-held section stays at a
  // move plus counter updates.
  const bool observed =
      static_cast<bool>(sink) || has_progress_.load(std::memory_order_relaxed);
  std::size_t done = 0;
  std::size_t total = 0;
  JobResult snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.cancelled) {
      ++stats_.cancelled;  // drained, never claimed: running_ untouched
    } else {
      --running_;  // every non-cancelled result came through an executor claim
      if (result.ok) {
        ++stats_.completed;
        stats_.engine.merge(result.stats);
      } else {
        ++stats_.failed;
      }
    }
    // A sink has streamed the result; only sink-less jobs keep one for
    // wait_all(), so a long-lived scheduler (the daemon's) does not grow
    // with every job it serves.
    if (sink) {
      snapshot = std::move(result);
    } else {
      if (observed) snapshot = result;
      results_.push_back(std::move(result));
    }
    done = ++done_;
    total = stats_.submitted;
  }
  cv_done_.notify_all();
  if (!observed) return;
  if (sink) {
    try {
      sink(snapshot);
    } catch (...) {
      // Sinks are observability hooks; a throwing sink must not take the
      // batch down or wedge the executor.
    }
  }
  std::lock_guard<std::recursive_mutex> lock(progress_mu_);
  if (progress_) {
    try {
      progress_(snapshot, done, total);
    } catch (...) {
    }
  }
}

}  // namespace emwd::batch
