#include "serve/server.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/bridge.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace emwd::serve {

namespace {

using util::json_quote;
using util::JsonValue;

/// Identity of the file at `path`; (0, 0) when there is none.
std::pair<std::uint64_t, std::uint64_t> file_id(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {0, 0};
  return {st.st_dev, st.st_ino};
}

const char* admit_reason(FairShareQueue::Admit a) {
  switch (a) {
    case FairShareQueue::Admit::QueueFull:
      return "queue_full";
    case FairShareQueue::Admit::ClientFull:
      return "client_full";
    case FairShareQueue::Admit::Closed:
      return "shutting_down";
    default:
      return "ok";
  }
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.admission),
      scheduler_(cfg_.scheduler),
      listener_(util::listen_unix(cfg_.socket_path)),
      socket_file_id_(file_id(cfg_.socket_path)) {
  if (!cfg_.initial_tables_json.empty()) {
    store_.reload(JsonValue::parse(cfg_.initial_tables_json));
  }
  const int executors = std::max(1, scheduler_.stats().executors);
  max_inflight_ = cfg_.max_inflight > 0
                      ? cfg_.max_inflight
                      : static_cast<std::size_t>(2 * executors);
  accept_thread_ = std::thread([this] { accept_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
}

Server::~Server() { stop(); }

void Server::request_stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  listener_.shutdown_both();  // unblocks the accept loop
  queue_.close();             // unblocks a dispatcher stuck in pop()
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    dispatcher_stop_ = true;  // unblocks a dispatcher waiting for a slot
  }
  inflight_cv_.notify_all();
  {
    // Shut every session socket down so recv_frame returns; the fds stay
    // open (and reserved) until the session objects die in stop().
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      if (session->fd.valid()) session->fd.shutdown_both();
    }
  }
  stop_cv_.notify_all();
}

void Server::wait_for_stop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stop_requested_; });
}

void Server::stop() {
  request_stop();
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Nothing accepts any more.  The listener fd itself stays open until the
  // destructor: a session thread's request_stop() may still be shutting it
  // down.  A later server may have replaced the file with its own socket;
  // leave that one alone.
  if (file_id(cfg_.socket_path) == socket_file_id_) ::unlink(cfg_.socket_path.c_str());
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  // Jobs that never reached the scheduler become cancelled results (their
  // sessions are usually gone by now; delivery is best-effort).
  stream_cancelled(queue_.drain_all());
  // Unclaimed jobs inside the scheduler drain as cancelled through their
  // sinks; running jobs finish.
  scheduler_.cancel();
  scheduler_.wait_all();
  for (;;) {
    std::shared_ptr<Session> victim;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto& [id, session] : sessions_) {
        if (session->thread.joinable()) {
          victim = session;
          break;
        }
      }
      if (!victim) {
        sessions_.clear();
        break;
      }
    }
    victim->thread.join();  // outside the lock; the thread may touch metrics
  }
}

StatusSnapshot Server::collect_status() const {
  StatusSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    snap.server = metrics_;
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    snap.server.inflight = inflight_;
  }
  {
    // Per-client failure breakdown, live sessions only.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->finished.load()) continue;
      ClientStats c;
      c.id = id;
      c.results = session->results_streamed.load();
      for (std::size_t k = 0; k < c.failed.size(); ++k) {
        c.failed[k] = session->failed[k].load();
      }
      snap.server.clients.push_back(c);
    }
  }
  snap.queue = queue_.stats();
  snap.scheduler = scheduler_.stats();
  snap.tables_version = store_.version();
  return snap;
}

std::string Server::status_json() const { return status_to_json(collect_status()); }

std::string Server::metrics_json() const {
  // One snapshot feeds BOTH renderings: any counter present in the status
  // JSON and the Prometheus text reports the identical value in this frame.
  // The mirror is this reply's own, so a concurrent scrape cannot overwrite
  // it between fill and render.
  const StatusSnapshot snap = collect_status();
  obs::Registry mirror;
  fill_registry(mirror, snap);
  obs::bridge_fault_counters(mirror);
  return "{\"type\":\"metrics\",\"status\":" + status_to_json(snap) +
         ",\"prometheus\":" +
         util::json_quote(mirror.to_prometheus() +
                          obs::Registry::global().to_prometheus()) +
         '}';
}

void Server::accept_loop() {
  for (;;) {
    util::UniqueFd fd;
    try {
      fd = util::accept_connection(listener_);
    } catch (const std::exception&) {
      return;  // listener broken beyond retry; the daemon is done accepting
    }
    if (!fd.valid()) return;  // request_stop() shut the listener down
    reap_finished_sessions();
    auto session = std::make_shared<Session>();
    session->fd = std::move(fd);
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->id = next_session_id_++;
      sessions_.emplace(session->id, session);
    }
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++metrics_.connections_total;
      ++metrics_.connections_active;
    }
    session->thread = std::thread([this, session] { session_loop(session); });
  }
}

void Server::reap_finished_sessions() {
  std::vector<std::shared_ptr<Session>> done;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->finished.load() && it->second->thread.joinable()) {
        done.push_back(it->second);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside sessions_mu_: a session's exit path takes that lock
  // (stream_cancelled -> find_session), so joining under it deadlocks the
  // accept thread against the exiting session thread.
  for (const auto& session : done) session->thread.join();
}

std::shared_ptr<Server::Session> Server::find_session(int id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void Server::session_loop(const std::shared_ptr<Session>& session) {
  for (;;) {
    std::optional<std::string> payload;
    try {
      payload = util::recv_frame(session->fd.get(), cfg_.max_frame);
    } catch (const std::invalid_argument& e) {
      // Oversized frame announcement: the stream is unframeable from here;
      // report and drop the connection.
      {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++metrics_.protocol_errors;
      }
      send_to(session, make_error("", e.what()));
      break;
    } catch (const std::exception&) {
      break;
    }
    if (!payload) break;  // orderly close, reset, or server shutdown

    Request req;
    try {
      req = parse_request(*payload);
    } catch (const std::exception& e) {
      // Byte soup inside a well-formed frame: the framing is intact, so the
      // connection stays usable.
      {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++metrics_.protocol_errors;
      }
      send_to(session, make_error("", e.what()));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(metrics_mu_);
      ++metrics_.requests;
    }
    {
      OBS_SPAN("serve.request", session->id);
      util::Timer rt;
      try {
        handle_request(session, req);
      } catch (const std::exception& e) {
        // classify_error maps logic/argument errors (the request is wrong)
        // to "permanent" and daemon-side trouble to "transient", telling the
        // client whether resending the identical request can ever help.
        send_to(session, make_error(req.id, e.what(), batch::classify_error(e)));
      }
      // Live latency histogram (not a scrape-time bridge: duration must be
      // observed as it happens).  Buckets span socket-op to long-sweep time.
      obs::Registry::global()
          .histogram("serve.request_seconds", {0.001, 0.01, 0.1, 1.0, 10.0})
          .observe(rt.seconds());
    }
  }
  session->open.store(false);
  // Surface the drop to the peer now; the fd itself stays open (and its
  // number reserved) until the session object is reaped.
  if (session->fd.valid()) session->fd.shutdown_both();
  // A gone client's pending jobs would compute results nobody reads.
  stream_cancelled(queue_.cancel_client(session->id));
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    --metrics_.connections_active;
  }
  session->finished.store(true);  // last: the thread is now safe to join
}

void Server::handle_request(const std::shared_ptr<Session>& session,
                            const Request& req) {
  switch (req.op) {
    case Op::Ping:
      send_to(session, make_pong());
      return;
    case Op::Status:
      send_to(session, status_json());
      return;
    case Op::Reload: {
      const JsonValue* tables = req.doc.find("tables");
      if (!tables) {
        throw std::invalid_argument("reload: missing \"tables\" member");
      }
      const std::vector<std::string> names = store_.reload(*tables);
      {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++metrics_.reloads;
      }
      std::ostringstream os;
      os << "{\"type\":\"reloaded\",\"id\":" << json_quote(req.id)
         << ",\"version\":" << store_.version() << ",\"scenes\":[";
      for (std::size_t i = 0; i < names.size(); ++i) {
        if (i) os << ',';
        os << json_quote(names[i]);
      }
      os << "]}";
      send_to(session, os.str());
      return;
    }
    case Op::Cancel:
      handle_cancel(session, req);
      return;
    case Op::Shutdown:
      send_to(session, make_ack(req.id, 0));
      request_stop();
      return;
    case Op::Submit: {
      const JsonValue* jobdoc = req.doc.find("job");
      if (!jobdoc) throw std::invalid_argument("submit: missing \"job\" member");
      batch::Job job = batch::Job::from_json(*jobdoc);
      if (const JsonValue* scene_name = req.doc.find("scene")) {
        auto tables = store_.snapshot();
        const Scene* scene = tables->find(scene_name->as_string());
        if (!scene) {
          throw std::invalid_argument("submit: unknown scene \"" +
                                      scene_name->as_string() + '"');
        }
        job.setup = scene->setup();
      }
      std::vector<batch::Job> jobs;
      jobs.push_back(std::move(job));
      handle_jobs(session, req, std::move(jobs));
      return;
    }
    case Op::Preempt: {
      const long count = req.doc.get_int("count", 1);
      if (count < 1) throw std::invalid_argument("preempt: count must be >= 1");
      long below = req.doc.get_int("below_priority", 0);
      if (!req.doc.find("below_priority")) {
        below = std::numeric_limits<int>::max();  // default: any priority
      }
      below = std::clamp<long>(below, std::numeric_limits<int>::min(),
                               std::numeric_limits<int>::max());
      const std::size_t signalled = scheduler_.preempt_lower_than(
          static_cast<int>(below), static_cast<std::size_t>(count));
      {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        ++metrics_.preempt_requests;
      }
      send_to(session, make_ack(req.id, signalled));
      return;
    }
    case Op::Checkpoint:
      send_to(session, make_ack(req.id, scheduler_.checkpoint_running()));
      return;
    case Op::Metrics:
      send_to(session, metrics_json());
      return;
    case Op::Sweep: {
      const SweepSpec spec = parse_sweep_spec(req.doc.get_string("spec", ""));
      auto tables = store_.snapshot();
      const Scene* scene = tables->find(spec.scene);
      if (!scene) {
        throw std::invalid_argument("sweep: unknown scene \"" + spec.scene + '"');
      }
      std::vector<batch::Job> jobs =
          batch::expand_sweep_jobs(to_sweep_config(spec, *scene));
      for (batch::Job& job : jobs) job.priority = spec.priority;
      handle_jobs(session, req, std::move(jobs));
      return;
    }
  }
}

void Server::handle_jobs(const std::shared_ptr<Session>& session, const Request& req,
                         std::vector<batch::Job> jobs) {
  const std::uint64_t request = next_request_.fetch_add(1);
  // A char, not "r": gcc 12 flags a literal + std::string here with a false
  // -Wrestrict.
  const std::string rid = req.id.empty() ? 'r' + std::to_string(request) : req.id;
  {
    // Register the countdown BEFORE anything is admitted: a fast job could
    // otherwise finish and look up a request that does not exist yet.
    std::lock_guard<std::mutex> lock(session->state_mu);
    session->requests[request] = Session::ReqState{jobs.size(), 0};
  }
  send_to(session, make_ack(rid, jobs.size()));
  if (jobs.empty()) {
    account_request(session, rid, request, 0, 0);
    return;
  }

  int max_priority = std::numeric_limits<int>::min();
  for (const batch::Job& job : jobs) max_priority = std::max(max_priority, job.priority);

  std::map<FairShareQueue::Admit, std::size_t> rejected;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    PendingJob item;
    item.client = session->id;
    item.request = request;
    item.request_id = rid;
    item.index = i;
    item.job = std::move(jobs[i]);
    const FairShareQueue::Admit admit = queue_.push(std::move(item));
    if (admit != FairShareQueue::Admit::Ok) ++rejected[admit];
  }
  std::size_t rejected_total = 0;
  for (const auto& [admit, count] : rejected) {
    rejected_total += count;
    // Capacity rejects are transient: tell the client how long to hold off
    // before resubmitting, scaled by the current backlog.  A closed queue
    // (shutdown) gets no hint — retrying against a dying daemon is futile.
    double retry_after = -1.0;
    if (admit == FairShareQueue::Admit::QueueFull ||
        admit == FairShareQueue::Admit::ClientFull) {
      retry_after = std::min(5.0, 0.05 + 0.01 * static_cast<double>(
                                               queue_.stats().pending));
    }
    send_to(session, make_rejected(rid, count, admit_reason(admit), retry_after));
  }
  if (rejected_total > 0) {
    account_request(session, rid, request, rejected_total, 0);
    if (cfg_.auto_preempt) {
      // Rejected-for-capacity: make room by parking running preemptible
      // jobs of strictly lower priority (one per rejected job).  They lose
      // no work — each re-queues as a resumable continuation — and the
      // freed executor slots drain the backlog for the rejected client's
      // retry.
      const std::size_t preempted =
          scheduler_.preempt_lower_than(max_priority, rejected_total);
      if (preempted > 0) {
        std::lock_guard<std::mutex> lock(metrics_mu_);
        metrics_.auto_preemptions += preempted;
      }
    }
  }
}

void Server::handle_cancel(const std::shared_ptr<Session>& session,
                           const Request& req) {
  std::vector<PendingJob> dropped = queue_.cancel_client(session->id);
  send_to(session, make_ack(req.id, dropped.size()));
  stream_cancelled(dropped);
}

void Server::stream_cancelled(const std::vector<PendingJob>& dropped) {
  for (const PendingJob& item : dropped) {
    std::shared_ptr<Session> session = find_session(item.client);
    if (!session) continue;
    stream_result(session, item.request_id, item.request, item.index,
                  batch::cancelled_result(item.job, item.index));
  }
}

void Server::dispatcher_loop() {
  for (;;) {
    {
      // Hold at most max_inflight_ jobs inside the scheduler: the backlog
      // waits in the DRR queue, where ordering is per-client fair, instead
      // of the scheduler's strict-priority heap.
      std::unique_lock<std::mutex> lock(inflight_mu_);
      inflight_cv_.wait(lock,
                        [&] { return dispatcher_stop_ || inflight_ < max_inflight_; });
      if (dispatcher_stop_) return;
    }
    std::optional<PendingJob> item = queue_.pop();
    if (!item) return;  // queue closed and drained
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      ++inflight_;
    }
    std::weak_ptr<Session> wsession = find_session(item->client);
    const std::string rid = item->request_id;
    const std::uint64_t request = item->request;
    const std::size_t index = item->index;
    batch::Job job = std::move(item->job);
    job.sink = [this, wsession, rid, request, index](const batch::JobResult& r) {
      if (std::shared_ptr<Session> session = wsession.lock()) {
        stream_result(session, rid, request, index, r);
      }
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        --inflight_;
      }
      inflight_cv_.notify_one();
    };
    try {
      scheduler_.submit(std::move(job));
    } catch (const std::logic_error&) {
      // Shutdown race: the scheduler already closed.  The job's sink never
      // runs; release the slot and count the request down by hand.
      if (std::shared_ptr<Session> session = wsession.lock()) {
        account_request(session, rid, request, 1, 0);
      }
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        --inflight_;
      }
      inflight_cv_.notify_one();
    }
  }
}

void Server::send_to(const std::shared_ptr<Session>& session,
                     const std::string& payload) {
  if (!session->open.load()) return;
  std::lock_guard<std::mutex> lock(session->write_mu);
  bool sent = false;
  try {
    sent = util::send_frame(session->fd.get(), payload);
  } catch (const std::exception&) {
    sent = false;
  }
  if (!sent) {
    session->open.store(false);
    // Wake the session thread if it is blocked in recv_frame — a dead peer
    // would otherwise keep the session (and its fd) alive indefinitely.
    if (session->fd.valid()) session->fd.shutdown_both();
  }
}

void Server::stream_result(const std::shared_ptr<Session>& session,
                           const std::string& request_id, std::uint64_t request,
                           std::size_t index, const batch::JobResult& r) {
  const bool failed = !r.ok && !r.cancelled;
  const FailureClass cls = failed ? failure_class(r.error_class) : kTransient;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    ++metrics_.results_streamed;
    if (failed) ++metrics_.job_failures[cls];
  }
  session->results_streamed.fetch_add(1);
  if (failed) session->failed[cls].fetch_add(1);
  send_to(session, make_result(request_id, index, r));
  account_request(session, request_id, request, 1, 1);
}

void Server::account_request(const std::shared_ptr<Session>& session,
                             const std::string& request_id, std::uint64_t request,
                             std::size_t count, std::size_t delivered_now) {
  bool finished = false;
  std::size_t delivered = 0;
  {
    std::lock_guard<std::mutex> lock(session->state_mu);
    auto it = session->requests.find(request);
    if (it == session->requests.end()) return;
    it->second.delivered += delivered_now;
    it->second.remaining -= std::min(count, it->second.remaining);
    if (it->second.remaining == 0) {
      finished = true;
      delivered = it->second.delivered;
      session->requests.erase(it);
    }
  }
  if (finished) send_to(session, make_done(request_id, delivered));
}

}  // namespace emwd::serve
