// serve::StatusSnapshot — the daemon's stats record — and its renderings.
//
// The Status op answers with one JSON object assembled from three
// lock-consistent snapshots: the server's own counters (taken under the
// metrics mutex), FairShareQueue::stats() and batch::Scheduler::stats().
// Each snapshot is internally consistent (the scheduler one holds the
// identity queued + running + completed + failed + cancelled == submitted);
// across the three there is no global barrier — a job can move from
// "pending" to "running" between snapshots — which is the usual monitoring
// contract and costs no serving throughput.
//
// status_fields() lists the payload's members once, each with its JSON
// path and, where the registry mirrors it, its series; status_to_json and
// fill_registry both walk that list, so the two renderings of one snapshot
// cannot drift apart.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/scheduler.hpp"
#include "serve/fair_share.hpp"

namespace emwd::obs {
class Registry;  // obs/registry.hpp — fill_registry's target
}

namespace emwd::serve {

/// The classes a failed result counts under (batch::JobResult::error_class),
/// in status-key order; a FailureCounts entry is indexed by its class.
enum FailureClass : std::size_t { kTransient, kPermanent, kDeadline };
inline constexpr std::array<const char*, 3> kFailureClasses{"transient", "permanent",
                                                            "deadline"};
using FailureCounts = std::array<std::uint64_t, kFailureClasses.size()>;

/// The class `error_class` names; any class not listed is transient.
FailureClass failure_class(const std::string& error_class);

/// Per-connected-client counters, surfaced in the Status payload's
/// "clients" array (live sessions only — a disconnected client's counters
/// leave with its session; the aggregate Metrics totals persist).
struct ClientStats {
  int id = 0;
  std::uint64_t results = 0;  // result frames streamed to this client
  FailureCounts failed{};     // "failed_<class>"
};

/// Server-level counters; the Server mutates them under its metrics mutex.
struct Metrics {
  std::uint64_t connections_total = 0;
  std::size_t connections_active = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;  // malformed frames / bad requests
  std::uint64_t results_streamed = 0;
  std::uint64_t reloads = 0;
  std::size_t inflight = 0;  // dispatched to the scheduler, not yet finished
  std::uint64_t preempt_requests = 0;   // explicit preempt ops served
  std::uint64_t auto_preemptions = 0;   // jobs preempted for rejected capacity
  /// Daemon-lifetime failed-job counters by class (degradation visibility:
  /// a run of transient failures is load/fault trouble, a run of permanent
  /// ones is a misbehaving client).
  FailureCounts job_failures{};
  /// Per-live-client breakdown, filled by Server::collect_status.
  std::vector<ClientStats> clients;
};

/// The three stats sources of one Server::collect_status pass: the record
/// both renderings take.
struct StatusSnapshot {
  Metrics server;
  FairShareQueue::Stats queue;
  batch::BatchStats scheduler;
  std::uint64_t tables_version = 0;
};

/// One member of the Status payload.
struct StatusField {
  const char* path;              // dotted path below the root: "server.requests"
  std::uint64_t value = 0;       // every scalar member is a count
  std::string rendered;          // a non-scalar member's JSON; empty: `value`
  const char* metric = nullptr;  // mirrored registry name; nullptr: JSON only
  const char* labels = "";       // the mirrored series' Prometheus label body
  bool gauge = false;            // mirrored as a gauge, else as a counter
};

/// Every member of `s`'s Status payload, in document order.  Registry
/// series are aggregates only: the per-client array stays in the JSON
/// (session ids are unbounded, and a scraper keeps one series per label
/// value it has ever seen).
std::vector<StatusField> status_fields(const StatusSnapshot& s);

/// Render the Status payload: {"type":"status","server":{...},
/// "queue":{...},"scheduler":{...},"tables_version":N}.
std::string status_to_json(const StatusSnapshot& s);

/// Mirror `s` into `reg` (Counter::set — overwrite, never accumulate): the
/// mirrored status_fields plus the engine.* series of scheduler.engine.
/// Fed the same snapshot, the registry's Prometheus text and
/// status_to_json agree on every mirrored value.
void fill_registry(obs::Registry& reg, const StatusSnapshot& s);

}  // namespace emwd::serve
