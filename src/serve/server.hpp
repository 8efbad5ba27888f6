// serve::Server — the emwdd daemon core: accept loop, per-connection
// sessions, fair-share dispatch into a long-lived batch::Scheduler.
//
// Threading layout:
//   - accept thread: blocks in accept(); request_stop() shuts the listener
//     down, which unblocks it (util::accept_connection returns an invalid
//     fd).  Reaps finished sessions before each accept.
//   - one session thread per connection: recv_frame -> handle -> respond.
//     Job-bearing ops expand to batch::Jobs and push them into the
//     FairShareQueue; rejects are reported on the wire, never blocked on.
//   - dispatcher thread: pops the queue in DRR order and submits into the
//     scheduler, holding at most `max_inflight` jobs inside it — the
//     backlog stays in the fair-share queue (where ordering is per-client
//     fair), not in the scheduler's strict-priority heap.
//   - scheduler executors: run jobs; each job's sink streams a `result`
//     frame back to its session (write-mutex serialized, skipped when the
//     client is gone) and opens an inflight slot.
//
// Shutdown: request_stop() flips the stop flag, closes the listener and
// the queue and shuts every session socket down; stop() then joins the
// threads, removes the socket file, streams a cancelled result for every
// still-pending job and drains the scheduler.  Both are idempotent; the
// destructor calls them.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/scheduler.hpp"
#include "serve/fair_share.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/tables.hpp"
#include "util/socket.hpp"

namespace emwd::serve {

struct ServerConfig {
  std::string socket_path = "/tmp/emwdd.sock";
  batch::SchedulerConfig scheduler;
  AdmissionConfig admission;
  /// Jobs allowed inside the scheduler at once; 0 = 2x its executor count
  /// (keeps every executor busy while the next job is always staged).
  std::size_t max_inflight = 0;
  std::uint32_t max_frame = kMaxFrame;
  /// Optional {"scenes":[...]} document applied before serving starts
  /// (emwdd --tables); equivalent to an immediate Reload.
  std::string initial_tables_json;
  /// When a job-bearing request is rejected for capacity, signal preemption
  /// to running preemptible jobs of strictly lower priority (one per
  /// rejected job) so the backlog drains faster for the high-priority
  /// client.  Preempted jobs park as resumable continuations and lose no
  /// work beyond their last step boundary.  emwdd --no-auto-preempt clears
  /// this.
  bool auto_preempt = true;
};

class Server {
 public:
  /// Binds the socket and starts serving; throws std::system_error when the
  /// path cannot be bound.
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begin shutdown without joining (safe from a session thread — the
  /// shutdown op uses it).  Idempotent.
  void request_stop();

  /// Block until request_stop() has been called (by a signal handler's
  /// watcher or a client's shutdown op).
  void wait_for_stop();

  /// Finish shutdown: join all threads, unlink socket_path (unless another
  /// server has bound a new socket there since), cancel pending work, drain
  /// the scheduler.  Idempotent; implies request_stop().
  void stop();

  const std::string& socket_path() const { return cfg_.socket_path; }

  /// The Status payload (also used by the Status op).
  std::string status_json() const;

  /// The Metrics payload: {"type":"metrics","status":{...},
  /// "prometheus":"..."}.  Status JSON and Prometheus text are rendered
  /// from ONE collect_status() snapshot, mirrored with the fault-injection
  /// bridge into a registry of this reply's own, so every counter present
  /// in both agrees exactly even under concurrent scrapes — serve_test and
  /// the CI obs smoke assert that identity under load.  The process-wide
  /// registry's text (metrics counted where they happen) follows.
  std::string metrics_json() const;

 private:
  /// One lock-consistent pass over the daemon's three stats sources (the
  /// shared source for status_json and metrics_json).
  StatusSnapshot collect_status() const;
  /// Per-connection state shared between the session thread and result
  /// sinks (which run on scheduler executor threads and may outlive the
  /// connection).
  struct Session {
    int id = 0;
    util::UniqueFd fd;
    std::mutex write_mu;            // serializes frames onto fd
    std::atomic<bool> open{true};   // cleared when the peer goes away
    // Set as session_loop's very last statement: only then is the thread
    // past every step that needs server locks, so reaping may join it.
    // `open` is NOT a join gate — it flips while the thread still has its
    // exit path (queue cancel, result streaming) ahead of it.
    std::atomic<bool> finished{false};
    std::thread thread;
    // Counters surfaced per client in the Status payload (ClientStats);
    // updated from executor threads (stream_result), read by collect_status.
    std::atomic<std::uint64_t> results_streamed{0};
    std::array<std::atomic<std::uint64_t>, kFailureClasses.size()> failed{};
    // Per-request delivery accounting; the delivery that takes `remaining`
    // to zero sends the `done` frame.  Guarded by state_mu (never held
    // while sending — send_to takes write_mu).
    struct ReqState {
      std::size_t remaining = 0;
      std::size_t delivered = 0;  // result frames actually streamed
    };
    std::mutex state_mu;
    std::map<std::uint64_t, ReqState> requests;
  };

  void accept_loop();
  void dispatcher_loop();
  void session_loop(const std::shared_ptr<Session>& session);
  void handle_request(const std::shared_ptr<Session>& session, const Request& req);
  void handle_jobs(const std::shared_ptr<Session>& session, const Request& req,
                   std::vector<batch::Job> jobs);
  void handle_cancel(const std::shared_ptr<Session>& session, const Request& req);

  /// Send one frame on a session (write-mutex held inside); marks the
  /// session closed when the peer is gone.
  void send_to(const std::shared_ptr<Session>& session, const std::string& payload);
  /// Stream a result frame and run the per-request countdown / done frame.
  void stream_result(const std::shared_ptr<Session>& session,
                     const std::string& request_id, std::uint64_t request,
                     std::size_t index, const batch::JobResult& r);
  /// Take `count` undelivered slots off a request (`delivered_now` of them
  /// carried a result frame); sends the `done` frame at zero remaining.
  void account_request(const std::shared_ptr<Session>& session,
                       const std::string& request_id, std::uint64_t request,
                       std::size_t count, std::size_t delivered_now);
  /// Stream synthesized cancelled results for jobs dropped from the queue.
  void stream_cancelled(const std::vector<PendingJob>& dropped);

  std::shared_ptr<Session> find_session(int id) const;
  void reap_finished_sessions();

  ServerConfig cfg_;
  TableStore store_;
  FairShareQueue queue_;
  batch::Scheduler scheduler_;
  util::UniqueFd listener_;
  /// (st_dev, st_ino) of the socket file this server bound.
  std::pair<std::uint64_t, std::uint64_t> socket_file_id_;

  mutable std::mutex sessions_mu_;
  std::map<int, std::shared_ptr<Session>> sessions_;
  int next_session_id_ = 1;
  std::atomic<std::uint64_t> next_request_{1};

  mutable std::mutex metrics_mu_;
  Metrics metrics_;

  mutable std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;
  std::size_t max_inflight_ = 1;
  bool dispatcher_stop_ = false;  // guarded by inflight_mu_

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;

  std::thread accept_thread_;
  std::thread dispatcher_thread_;
};

}  // namespace emwd::serve
