// batch::Job / batch::JobResult — the value types of the batch subsystem.
//
// The paper's production workload is fleets of small simulations ("about
// 80-160 simulations" per solar-cell design, Sec. VI), each an independent
// THIIM run: same code path as one thiim::Simulation, but admitted through
// the batch::Scheduler so many of them share the machine.  A Job is
// everything needed to run one simulation unattended; a JobResult is the
// canonical record of what happened — observables, engine stats, wall time
// and the execution provenance (slot, pooled-engine reuse, plan-cache hit)
// — serializable as a CSV row or a JSON object.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "thiim/simulation.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace emwd::batch {

struct JobResult;

/// Thrown (and classified as error_class "deadline") when a job exceeds its
/// wall-clock budget.  Checked at the same safe step boundaries that poll
/// preemption, and at a convergence job's checks, so enforcement latency is
/// bounded by preempt_check_every steps, fixed-step or convergence job.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded(const std::string& job, double budget_seconds)
      : std::runtime_error("job \"" + job + "\" exceeded its deadline of " +
                           std::to_string(budget_seconds) + "s") {}
};

/// Map an exception to its failure class (JobResult::error_class / the serve
/// wire "class" member):
///   "deadline"  — DeadlineExceeded; the budget is spent, never retried
///   "permanent" — std::logic_error family (invalid_argument, domain_error,
///                 ...): the job itself is wrong, a retry cannot help
///   "transient" — everything else (I/O, system, injected faults, bad_alloc
///                 arriving as runtime errors): eligible for retry
const char* classify_error(const std::exception& e);

/// Per-job retry policy: how many total attempts a transiently-failing job
/// gets and how the executor backs off between them.  Attempt N+1 sleeps
/// backoff_seconds * multiplier^(N-1), capped at max_backoff_seconds, with a
/// deterministic seeded jitter of up to +/- jitter * delay (the stream
/// depends only on the submission index — two identical batches back off
/// identically).  "permanent" and "deadline" failures never retry.
struct RetryPolicy {
  int max_attempts = 1;            // total attempts including the first
  double backoff_seconds = 0.05;   // base delay before attempt 2
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 5.0;
  double jitter = 0.1;             // fraction of the delay, in [0, 1]
};

/// One simulation job.  The config selects grid/engine/boundary exactly as
/// for a standalone thiim::Simulation; `setup` paints geometry and sources.
struct Job {
  /// Row label in result tables; empty defaults to "job<index>".
  std::string name;

  /// Full simulation configuration.  `config.threads <= 0` means "size the
  /// engine to the executor's resource slot" — the scheduler fills it in
  /// before construction, which is how side-by-side jobs avoid
  /// oversubscribing each other.
  thiim::SimulationConfig config;

  /// Fixed step budget (converge_tol == 0), or convergence target:
  /// converge_tol > 0 runs run_until_converged(converge_tol, max_steps,
  /// check_every) with max_steps defaulting to `steps` when 0.
  int steps = 100;
  double converge_tol = 0.0;
  int max_steps = 0;
  int check_every = 10;

  /// Scheduling priority: larger runs earlier; ties run in submission order.
  int priority = 0;

  // ------------------------------------------- checkpoint / preemption
  /// Write a snapshot (format v2, src/io/README.md) of the running fields
  /// to `checkpoint_path` every `checkpoint_every` steps, through the
  /// scheduler's per-job async SnapshotWriter.  0 disables; so does a
  /// convergence job, which cannot resume.  The file is
  /// atomically replaced each time, so it always holds the latest complete
  /// snapshot.  Snapshot I/O errors fail the job loudly rather than
  /// silently losing restart capability.
  int checkpoint_every = 0;
  std::string checkpoint_path;

  /// Rotation depth for checkpoint_path: keep the last `keep` snapshots as
  /// path, path.1, ..., path.<keep-1> (io::rotate_snapshots).  Recovery
  /// walks the chain newest-first, quarantining corrupt files to *.bad.
  int checkpoint_keep = 1;

  /// Failure policy: transient failures retry per `retry` (resuming from
  /// the newest valid checkpoint when the job writes them); a nonzero
  /// `deadline_seconds` bounds the job's total wall clock across attempts,
  /// enforced at safe step boundaries.
  RetryPolicy retry;
  double deadline_seconds = 0.0;

  /// Resume from a snapshot file before stepping: fields + step counter are
  /// restored after setup, and only `steps - steps_done` further steps run.
  /// Fixed-step jobs only (converge_tol must be 0).  The stored extents and
  /// x boundary must match `config`.
  std::string resume_from;

  /// Opt in to scheduler preemption: Scheduler::preempt() may stop this job
  /// at the next safe step boundary, park its state as an in-memory
  /// snapshot, release its engine/fields leases and slot, and re-queue a
  /// continuation that later resumes bit-exactly.  Fixed-step jobs only;
  /// convergence jobs never preempt.
  bool preemptible = false;

  /// Continuation state (internal, not wire-transported): the preemption
  /// snapshot blob and counters carried across requeues so the final
  /// JobResult reports the whole history.
  std::shared_ptr<const std::string> resume_blob;
  int prior_preemptions = 0;
  int prior_snapshots = 0;

  /// Prepare the simulation: paint materials/geometry, call finalize(),
  /// add sources.  Runs on the executor thread.  When unset the scheduler
  /// calls sim.finalize() (vacuum box, no sources).
  std::function<void(thiim::Simulation&, const Job&)> setup;

  /// Optional per-job result sink, invoked on the executor thread right
  /// after the job finishes (also for failed and cancelled jobs).  A job
  /// with a sink hands its result only to the sink: the scheduler keeps no
  /// copy, and Scheduler::wait_all() leaves it out.  Use it for streaming
  /// consumers (the daemon, live CSV); jobs without one fill the ordered
  /// result table of wait_all()/run_sweep().
  std::function<void(const JobResult&)> sink;

  /// One JSON object (single line) carrying every wire-transportable field:
  /// name/steps/priority/convergence knobs plus the simulation config
  /// (grid, wavelength, cfl, pml, boundary, engine spec, threads).  The
  /// callable members (setup, sink) are code, not data — a remote submitter
  /// names a server-side scene instead (see src/serve/README.md).
  std::string to_json() const;

  /// Inverse of to_json.  Absent members keep the default-constructed
  /// value; present members are type-checked and a non-empty engine_spec is
  /// validated against the spec grammar.  Throws std::invalid_argument on
  /// malformed JSON or ill-typed members; never crashes on byte soup
  /// (fuzz-tested next to the spec-grammar tests).
  static Job from_json(const std::string& text);
  static Job from_json(const util::JsonValue& doc);
};

/// `job.name`, or "job<index>" when it is empty: the label of its result.
std::string job_label(const Job& job, std::size_t index);

/// The result of a job dropped before it ran: `cancelled`, with error and
/// error_class "cancelled".  Every path that drops a queued job builds it.
JobResult cancelled_result(const Job& job, std::size_t index);

/// The canonical per-job record.  All observables are bit-exact outputs of
/// the run (batch execution never changes results, only placement).
struct JobResult {
  std::size_t index = 0;  // submission order; results are returned sorted by it
  std::string name;

  bool ok = false;         // ran to completion
  bool cancelled = false;  // drained by Scheduler::cancel() before starting
  std::string error;       // exception text when !ok && !cancelled
  /// Failure classification when !ok: "transient", "permanent", "deadline"
  /// or "cancelled" (see classify_error); empty on success.  Clients use it
  /// to decide whether resubmitting can possibly help.
  std::string error_class;

  // ------------------------------------------------------- observables
  double total_energy = 0.0;
  double electric_energy = 0.0;
  std::vector<double> absorption;  // per material id (em::absorption_by_material)
  double converged_change = 0.0;   // last relative change (convergence jobs)
  int steps_done = 0;

  // -------------------------------------------------- execution record
  exec::EngineStats stats;    // engine counters of the run
  double wall_seconds = 0.0;  // construction + setup + run + observables
  int slot = -1;              // resource slot the executor was pinned to
  int threads = 0;            // engine thread budget actually used
  std::string engine_spec;    // resolved concrete spec (post plan-cache)
  std::string engine_name;
  bool engine_reused = false;   // engine came from the EnginePool
  bool plan_cache_hit = false;  // tuning skipped via the PlanCache
  int snapshots = 0;            // checkpoint snapshots written by this job
  int preemptions = 0;          // times the job was preempted and re-queued
  bool resumed = false;         // state was restored from a snapshot
  int attempts = 1;             // executor attempts (1 = no retries needed)
  int quarantined = 0;          // corrupt snapshots moved to *.bad during recovery

  /// Header/row pair for the canonical result table (absorption is
  /// material-set-dependent and therefore not part of the generic row;
  /// sweep front-ends add their own observable columns).
  static std::vector<std::string> row_header();
  std::vector<std::string> to_row() const;

  /// Canonical table over the generic columns, one row per result.
  static util::Table table(const std::vector<JobResult>& results);

  /// One JSON object (single line, no trailing newline) carrying every
  /// field including the absorption array.
  std::string to_json() const;

  /// Inverse of to_json — the emwd-client uses it to turn streamed result
  /// frames back into typed records.  Round-trip exact: to_json emits 17
  /// significant digits, so from_json(to_json(r)).to_json() == to_json(r).
  /// Throws std::invalid_argument on malformed or ill-typed input.
  static JobResult from_json(const std::string& text);
  static JobResult from_json(const util::JsonValue& doc);
};

}  // namespace emwd::batch
