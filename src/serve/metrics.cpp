#include "serve/metrics.hpp"

#include <charconv>
#include <map>
#include <string_view>
#include <utility>

#include "obs/registry.hpp"

namespace emwd::serve {

namespace {

std::string clients_json(const std::vector<ClientStats>& clients) {
  std::string out = "[";
  for (const ClientStats& c : clients) {
    out += out.size() > 1 ? ",{\"id\":" : "{\"id\":";
    out += std::to_string(c.id);
    out += ",\"results\":";
    out += std::to_string(c.results);
    for (std::size_t k = 0; k < kFailureClasses.size(); ++k) {
      out += ",\"failed_";
      out += kFailureClasses[k];
      out += "\":";
      out += std::to_string(c.failed[k]);
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::string queue_depth_json(const std::map<int, std::size_t>& depth) {
  std::string out = "{";
  for (const auto& [priority, jobs] : depth) {
    out += out.size() > 1 ? ",\"" : "\"";
    out += std::to_string(priority);
    out += "\":";
    out += std::to_string(jobs);
  }
  out += '}';
  return out;
}

}  // namespace

FailureClass failure_class(const std::string& error_class) {
  for (std::size_t k = 0; k < kFailureClasses.size(); ++k) {
    if (error_class == kFailureClasses[k]) return static_cast<FailureClass>(k);
  }
  return kTransient;
}

std::vector<StatusField> status_fields(const StatusSnapshot& s) {
  const Metrics& m = s.server;
  const FairShareQueue::Stats& q = s.queue;
  const batch::BatchStats& b = s.scheduler;
  std::vector<StatusField> f;
  // Row forms: JSON only, mirrored as a counter or a gauge, and a
  // non-scalar member rendered by hand.
  const auto json = [&f](const char* path, auto v) {
    f.push_back({path, static_cast<std::uint64_t>(v), "", nullptr, "", false});
  };
  const auto counter = [&f](const char* path, auto v, const char* metric,
                            const char* labels = "") {
    f.push_back({path, static_cast<std::uint64_t>(v), "", metric, labels, false});
  };
  const auto gauge = [&f](const char* path, auto v, const char* metric) {
    f.push_back({path, static_cast<std::uint64_t>(v), "", metric, "", true});
  };
  const auto object = [&f](const char* path, std::string rendered) {
    f.push_back({path, 0, std::move(rendered), nullptr, "", false});
  };

  counter("server.connections_total", m.connections_total, "serve.connections_total");
  gauge("server.connections_active", m.connections_active, "serve.connections_active");
  counter("server.requests", m.requests, "serve.requests");
  counter("server.protocol_errors", m.protocol_errors, "serve.protocol_errors");
  counter("server.results_streamed", m.results_streamed, "serve.results_streamed");
  counter("server.reloads", m.reloads, "serve.reloads");
  gauge("server.inflight", m.inflight, "serve.inflight");
  counter("server.preempt_requests", m.preempt_requests, "serve.preempt_requests");
  counter("server.auto_preemptions", m.auto_preemptions, "serve.auto_preemptions");
  counter("server.job_failures.transient", m.job_failures[kTransient],
          "serve.job_failures", "class=\"transient\"");
  counter("server.job_failures.permanent", m.job_failures[kPermanent],
          "serve.job_failures", "class=\"permanent\"");
  counter("server.job_failures.deadline", m.job_failures[kDeadline], "serve.job_failures",
          "class=\"deadline\"");
  object("server.clients", clients_json(m.clients));

  counter("queue.admitted", q.admitted, "queue.admitted");
  counter("queue.rejected_queue_full", q.rejected_queue_full, "queue.rejected",
          "reason=\"queue_full\"");
  counter("queue.rejected_client_full", q.rejected_client_full, "queue.rejected",
          "reason=\"client_full\"");
  counter("queue.dispatched", q.dispatched, "queue.dispatched");
  counter("queue.cancelled", q.cancelled, "queue.cancelled");
  gauge("queue.pending", q.pending, "queue.pending");
  gauge("queue.clients", q.clients, "queue.clients");

  counter("scheduler.submitted", b.submitted, "sched.jobs_submitted");
  counter("scheduler.completed", b.completed, "sched.jobs_completed");
  counter("scheduler.failed", b.failed, "sched.jobs_failed");
  counter("scheduler.cancelled", b.cancelled, "sched.jobs_cancelled");
  gauge("scheduler.queued", b.queued, "sched.jobs_queued");
  gauge("scheduler.running", b.running, "sched.jobs_running");
  counter("scheduler.preempted", b.preempted, "sched.preempted");
  counter("scheduler.resumed", b.resumed, "sched.resumed");
  counter("scheduler.snapshots_written", b.snapshots_written, "sched.snapshots_written");
  counter("scheduler.snapshot_bytes", b.snapshot_bytes, "sched.snapshot_bytes");
  counter("scheduler.retries", b.retries, "sched.retries");
  counter("scheduler.quarantined", b.quarantined, "sched.quarantined");
  object("scheduler.queue_depth", queue_depth_json(b.queue_depth));
  json("scheduler.slots", b.slots);
  json("scheduler.executors", b.executors);
  counter("scheduler.pool.engine_hits", b.pool.engine_hits, "sched.pool_engine_hits");
  counter("scheduler.pool.engine_builds", b.pool.engine_builds,
          "sched.pool_engine_builds");
  json("scheduler.pool.fields_hits", b.pool.fields_hits);
  json("scheduler.pool.fields_builds", b.pool.fields_builds);
  json("scheduler.pool.engine_evictions", b.pool.engine_evictions);
  json("scheduler.pool.fields_evictions", b.pool.fields_evictions);
  json("scheduler.pool.idle_engines", b.pool.idle_engines);
  json("scheduler.pool.idle_fields", b.pool.idle_fields);
  counter("scheduler.plans.hits", b.plans.hits, "sched.plan_cache_hits");
  counter("scheduler.plans.misses", b.plans.misses, "sched.plan_cache_misses");
  // The merged per-job engine stats ride in the canonical EngineStats
  // object; fill_registry mirrors its engine.* series by hand.
  object("scheduler.engine", b.engine.to_json());

  gauge("tables_version", s.tables_version, "serve.tables_version");
  return f;
}

std::string status_to_json(const StatusSnapshot& s) {
  const std::vector<StatusField> fields = status_fields(s);
  std::string out = "{\"type\":\"status\"";
  std::string_view open;  // path of the innermost open object; empty: the root
  const auto key = [&out](std::string_view k) {
    if (out.back() != '{') out += ',';
    out += '"';
    out += k;
    out += "\":";
  };
  const auto close = [&out, &open] {
    out += '}';
    const std::size_t dot = open.rfind('.');
    open = open.substr(0, dot == open.npos ? 0 : dot);
  };
  for (const StatusField& f : fields) {
    // Close the open objects that do not enclose this member, then open
    // the ones that do.
    const std::string_view path = f.path;
    while (!open.empty() &&
           !(path.starts_with(open) && path.substr(open.size()).starts_with('.'))) {
      close();
    }
    std::size_t begin = open.empty() ? 0 : open.size() + 1;
    for (std::size_t dot; (dot = path.find('.', begin)) != path.npos; begin = dot + 1) {
      key(path.substr(begin, dot - begin));
      out += '{';
      open = path.substr(0, dot);
    }
    key(path.substr(begin));
    if (f.rendered.empty()) {
      char digits[24];
      out.append(digits, std::to_chars(digits, digits + sizeof(digits), f.value).ptr);
    } else {
      out += f.rendered;
    }
  }
  while (!open.empty()) close();
  out += '}';
  return out;
}

void fill_registry(obs::Registry& reg, const StatusSnapshot& s) {
  for (const StatusField& f : status_fields(s)) {
    if (f.metric == nullptr) continue;
    if (f.gauge) {
      reg.gauge(f.metric, f.labels).set(static_cast<double>(f.value));
    } else {
      reg.counter(f.metric, f.labels).set(static_cast<std::int64_t>(f.value));
    }
  }
  const exec::EngineStats& e = s.scheduler.engine;
  reg.counter("engine.steps").set(e.steps);
  reg.counter("engine.lups").set(e.lups);
  reg.counter("engine.tiles_executed").set(e.tiles_executed);
  reg.counter("engine.halo_bytes_moved").set(e.halo_bytes_moved);
  reg.gauge("engine.seconds").set(e.seconds);
  reg.gauge("engine.mlups").set(e.mlups);
  reg.gauge("engine.halo_exposed_seconds").set(e.halo_exposed_seconds());
}

}  // namespace emwd::serve
