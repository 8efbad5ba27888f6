// Tests for the serve subsystem: wire protocol, fair-share admission,
// scene tables, and the emwdd Server end-to-end over a real Unix socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/sweep.hpp"
#include "exec/engine.hpp"
#include "exec/engine_registry.hpp"
#include "fault/inject.hpp"
#include "obs/registry.hpp"
#include "thiim/simulation.hpp"
#include "serve/fair_share.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tables.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

using namespace emwd;
using util::JsonValue;

std::string test_socket_path(const char* tag) {
  return "/tmp/emwd_serve_test_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Blocking test client over the framed protocol.
struct Client {
  util::UniqueFd fd;

  explicit Client(const std::string& path) : fd(util::connect_unix(path)) {}

  void send(const std::string& payload) {
    ASSERT_TRUE(util::send_frame(fd.get(), payload));
  }
  JsonValue recv() {
    std::optional<std::string> payload = util::recv_frame(fd.get(), serve::kMaxFrame);
    if (!payload) throw std::runtime_error("server closed the connection");
    return JsonValue::parse(*payload);
  }

  /// Run a sweep request to completion; returns results keyed by the outer
  /// (expansion-order) index, plus rejected/cancelled counts.
  struct SweepOutcome {
    std::map<std::size_t, batch::JobResult> results;
    std::size_t acked_jobs = 0;
    std::size_t rejected = 0;
    std::size_t done_results = 0;
  };
  SweepOutcome run_sweep(const std::string& spec) {
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"spec\":" << util::json_quote(spec) << '}';
    send(os.str());
    return collect();
  }
  SweepOutcome collect() {
    SweepOutcome out;
    for (;;) {
      const JsonValue frame = recv();
      const std::string type = frame.get_string("type", "");
      if (type == "ack") {
        out.acked_jobs = static_cast<std::size_t>(frame.get_int("jobs", 0));
      } else if (type == "rejected") {
        out.rejected += static_cast<std::size_t>(frame.get_int("count", 0));
      } else if (type == "result") {
        const JsonValue* r = frame.find("result");
        if (r == nullptr) throw std::runtime_error("result frame without result");
        out.results[static_cast<std::size_t>(frame.get_int("index", 0))] =
            batch::JobResult::from_json(*r);
      } else if (type == "done") {
        out.done_results = static_cast<std::size_t>(frame.get_int("results", 0));
        return out;
      } else if (type == "error") {
        throw std::runtime_error("server error: " + frame.get_string("message", ""));
      }
    }
  }
};

serve::ServerConfig small_server(const std::string& path) {
  serve::ServerConfig cfg;
  cfg.socket_path = path;
  cfg.scheduler.concurrency = 2;
  cfg.scheduler.slots = 1;
  cfg.scheduler.pin_slots = false;
  return cfg;
}

constexpr const char* kSweep =
    "scene=layered;grid=10x10x16;lambda=16,22;steps=30;threads=2;engine=naive;pml=3";

// -------------------------------------------------------------- protocol

TEST(ServeProtocol, ParseRequestOpsAndErrors) {
  EXPECT_EQ(serve::parse_request("{\"op\":\"ping\"}").op, serve::Op::Ping);
  EXPECT_EQ(serve::parse_request("{\"op\":\"status\",\"id\":\"x\"}").id, "x");
  EXPECT_EQ(serve::parse_request("{\"op\":\"shutdown\"}").op, serve::Op::Shutdown);
  EXPECT_THROW(serve::parse_request("{\"op\":\"nope\"}"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("{}"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("[1,2]"), std::invalid_argument);
  EXPECT_THROW(serve::parse_request("not json at all"), std::invalid_argument);
}

TEST(ServeProtocol, SplitListRespectsParentheses) {
  const auto items = serve::split_list("naive,mwd(dw=8,bz=2),spatial");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[1], "mwd(dw=8,bz=2)");
  EXPECT_THROW(serve::split_list("a,,b"), std::invalid_argument);
}

TEST(ServeProtocol, ParseSweepSpecFull) {
  const serve::SweepSpec spec = serve::parse_sweep_spec(
      "scene=tandem;grid=8x8x12,16x16x24;lambda=14,18;steps=40;tol=1e-6;"
      "max_steps=500;check_every=5;threads=3;cfl=0.4;pml=4;xb=periodic;priority=2;"
      "engine=naive");
  EXPECT_EQ(spec.scene, "tandem");
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[1].nz, 24);
  ASSERT_EQ(spec.wavelengths.size(), 2u);
  EXPECT_EQ(spec.steps, 40);
  EXPECT_DOUBLE_EQ(spec.converge_tol, 1e-6);
  EXPECT_EQ(spec.max_steps, 500);
  EXPECT_EQ(spec.check_every, 5);
  EXPECT_EQ(spec.base.threads, 3);
  EXPECT_DOUBLE_EQ(spec.base.cfl, 0.4);
  EXPECT_EQ(spec.base.pml.thickness, 4);
  EXPECT_EQ(spec.base.x_boundary, grid::XBoundary::Periodic);
  EXPECT_EQ(spec.priority, 2);
  ASSERT_EQ(spec.engine_specs.size(), 1u);
}

TEST(ServeProtocol, ParseSweepSpecRejectsBadInput) {
  EXPECT_THROW(serve::parse_sweep_spec("grid=16x16"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("grid=0x4x4"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("lambda=-3"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("steps=abc"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("xb=diagonal"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("engine=mwd(dw=)"),
               std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("steps"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("steps=0"), std::invalid_argument);
}

TEST(ServeProtocol, ResponseBuildersEmitValidJson) {
  const JsonValue ack = JsonValue::parse(serve::make_ack("r1", 7));
  EXPECT_EQ(ack.get_string("type", ""), "ack");
  EXPECT_EQ(ack.get_int("jobs", 0), 7);
  batch::JobResult r;
  r.name = "quote\"me";
  r.ok = true;
  const JsonValue res = JsonValue::parse(serve::make_result("r1", 3, r));
  EXPECT_EQ(res.get_int("index", 0), 3);
  EXPECT_EQ(res.find("result")->get_string("name", ""), "quote\"me");
  const JsonValue err = JsonValue::parse(serve::make_error("", "bad \\ stuff"));
  EXPECT_EQ(err.get_string("message", ""), "bad \\ stuff");
}

// ------------------------------------------------------------ fair share

serve::PendingJob pending(int client, std::size_t index) {
  serve::PendingJob p;
  p.client = client;
  p.index = index;
  return p;
}

TEST(FairShare, DeficitRoundRobinInterleavesClients) {
  serve::FairShareQueue q({.max_pending = 64, .max_per_client = 32, .quantum = 2});
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(q.push(pending(1, i)), serve::FairShareQueue::Admit::Ok);
  }
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_EQ(q.push(pending(2, i)), serve::FairShareQueue::Admit::Ok);
  }
  // Client 1 arrived entirely first, but DRR pops in quantum-sized blocks.
  std::vector<int> order;
  for (int i = 0; i < 12; ++i) order.push_back(q.pop()->client);
  EXPECT_EQ(order, (std::vector<int>{1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2}));
}

TEST(FairShare, PerClientIndexOrderIsPreserved) {
  serve::FairShareQueue q({.max_pending = 64, .max_per_client = 32, .quantum = 1});
  for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(q.push(pending(1, i)),
                                                serve::FairShareQueue::Admit::Ok);
  for (std::size_t i = 0; i < 4; ++i) ASSERT_EQ(q.push(pending(2, i)),
                                                serve::FairShareQueue::Admit::Ok);
  std::map<int, std::size_t> next;
  for (int i = 0; i < 8; ++i) {
    const serve::PendingJob p = *q.pop();
    EXPECT_EQ(p.index, next[p.client]++);
  }
}

TEST(FairShare, BoundsRejectExplicitly) {
  serve::FairShareQueue q({.max_pending = 3, .max_per_client = 2, .quantum = 1});
  EXPECT_EQ(q.push(pending(1, 0)), serve::FairShareQueue::Admit::Ok);
  EXPECT_EQ(q.push(pending(1, 1)), serve::FairShareQueue::Admit::Ok);
  EXPECT_EQ(q.push(pending(1, 2)), serve::FairShareQueue::Admit::ClientFull);
  EXPECT_EQ(q.push(pending(2, 0)), serve::FairShareQueue::Admit::Ok);
  EXPECT_EQ(q.push(pending(3, 0)), serve::FairShareQueue::Admit::QueueFull);
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.rejected_client_full, 1u);
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.pending, 3u);
  EXPECT_EQ(st.clients, 2u);
}

TEST(FairShare, CancelClientDropsOnlyThatClient) {
  serve::FairShareQueue q;
  for (std::size_t i = 0; i < 3; ++i) q.push(pending(1, i));
  for (std::size_t i = 0; i < 2; ++i) q.push(pending(2, i));
  const auto dropped = q.cancel_client(1);
  ASSERT_EQ(dropped.size(), 3u);
  EXPECT_EQ(q.stats().pending, 2u);
  EXPECT_EQ(q.pop()->client, 2);
  EXPECT_EQ(q.pop()->client, 2);
  EXPECT_TRUE(q.cancel_client(1).empty());
}

TEST(FairShare, CloseWakesPoppersAndRejectsPushes) {
  serve::FairShareQueue q;
  std::thread popper([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.close();
  popper.join();
  EXPECT_EQ(q.push(pending(1, 0)), serve::FairShareQueue::Admit::Closed);
  EXPECT_TRUE(q.drain_all().empty());
}

// ---------------------------------------------------------------- tables

TEST(Tables, BuiltinsArePresent) {
  const serve::Tables t = serve::builtin_tables();
  EXPECT_NE(t.find("vacuum"), nullptr);
  EXPECT_NE(t.find("layered"), nullptr);
  EXPECT_NE(t.find("tandem"), nullptr);
  EXPECT_EQ(t.find("nope"), nullptr);
}

TEST(Tables, SceneAppliesDeterministically) {
  thiim::SimulationConfig cfg;
  cfg.grid = {10, 10, 16};
  cfg.pml.thickness = 3;
  cfg.engine_spec = "naive";
  cfg.threads = 1;
  const serve::Tables t = serve::builtin_tables();
  double energy[2] = {0.0, 0.0};
  for (int trial = 0; trial < 2; ++trial) {
    thiim::Simulation sim(cfg);
    t.find("tandem")->apply(sim);
    sim.run(25);
    energy[trial] = sim.total_energy();
  }
  EXPECT_GT(energy[0], 0.0);
  EXPECT_EQ(energy[0], energy[1]);  // bit-exact, rough texture included
}

TEST(Tables, ReloadSwapsWithoutDisturbingSnapshots) {
  serve::TableStore store;
  EXPECT_EQ(store.version(), 1u);
  auto before = store.snapshot();
  const auto names = store.reload(JsonValue::parse(
      R"({"scenes":[{"name":"custom","layers":[{"material":"glass","z":[0.0,0.5]}]},
          {"name":"layered","layers":[{"material":"silver","z":[0.0,0.1]}]}]})"));
  EXPECT_EQ(store.version(), 2u);
  auto after = store.snapshot();
  // The old snapshot is untouched (jobs admitted before the reload hold it).
  EXPECT_EQ(before->version, 1u);
  EXPECT_EQ(before->find("custom"), nullptr);
  EXPECT_EQ(before->find("layered")->layers.size(), 4u);
  // The new generation has the custom scene and the layered override.
  EXPECT_NE(after->find("custom"), nullptr);
  EXPECT_EQ(after->find("layered")->layers.size(), 1u);
  EXPECT_NE(after->find("tandem"), nullptr);  // builtins survive
  EXPECT_EQ(names.size(), 4u);
}

TEST(Tables, ReloadRejectsBadInputWithoutSwapping) {
  serve::TableStore store;
  EXPECT_THROW(store.reload(JsonValue::parse(
                   R"({"scenes":[{"name":"x","layers":[{"material":"unobtainium",
                        "z":[0,1]}]}]})")),
               std::invalid_argument);
  EXPECT_THROW(store.reload(JsonValue::parse(
                   R"({"scenes":[{"layers":[]}]})")),
               std::invalid_argument);
  EXPECT_THROW(store.reload(JsonValue::parse(
                   R"({"scenes":[{"name":"x","layers":[{"material":"glass",
                        "z":[0.8,0.2]}]}]})")),
               std::invalid_argument);
  EXPECT_EQ(store.version(), 1u);
}

// ------------------------------------------------------------ end to end

TEST(ServeEndToEnd, SweepIsBitExactWithInProcessRunSweep) {
  const std::string path = test_socket_path("exact");
  serve::Server server(small_server(path));

  Client client(path);
  Client::SweepOutcome remote;
  ASSERT_NO_THROW(remote = client.run_sweep(kSweep));
  ASSERT_EQ(remote.acked_jobs, 2u);
  ASSERT_EQ(remote.results.size(), 2u);
  EXPECT_EQ(remote.rejected, 0u);

  const serve::SweepSpec spec = serve::parse_sweep_spec(kSweep);
  const serve::Tables tables = serve::builtin_tables();
  batch::SweepConfig sweep = serve::to_sweep_config(spec, *tables.find(spec.scene));
  sweep.scheduler.concurrency = 1;
  sweep.scheduler.pin_slots = false;
  const batch::SweepResult local = batch::run_sweep(sweep);
  ASSERT_EQ(local.results.size(), 2u);

  for (std::size_t i = 0; i < 2; ++i) {
    const batch::JobResult& r = remote.results.at(i);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.name, local.results[i].name);
    EXPECT_EQ(r.steps_done, local.results[i].steps_done);
    // Observables survive the wire bit-exactly (17 significant digits).
    EXPECT_EQ(r.total_energy, local.results[i].total_energy);
    EXPECT_EQ(r.electric_energy, local.results[i].electric_energy);
    ASSERT_EQ(r.absorption.size(), local.results[i].absorption.size());
    for (std::size_t a = 0; a < r.absorption.size(); ++a) {
      EXPECT_EQ(r.absorption[a], local.results[i].absorption[a]);
    }
  }
  server.stop();
}

TEST(ServeEndToEnd, SubmitSingleJobWithScene) {
  const std::string path = test_socket_path("submit");
  serve::Server server(small_server(path));
  Client client(path);
  batch::Job job;
  job.name = "one";
  job.config.grid = {10, 10, 16};
  job.config.pml.thickness = 3;
  job.config.engine_spec = "naive";
  job.config.threads = 2;
  job.steps = 20;
  client.send("{\"op\":\"submit\",\"scene\":\"vacuum\",\"job\":" + job.to_json() +
              "}");
  const Client::SweepOutcome out = client.collect();
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_TRUE(out.results.at(0).ok) << out.results.at(0).error;
  EXPECT_EQ(out.results.at(0).name, "one");
  EXPECT_GT(out.results.at(0).total_energy, 0.0);
  server.stop();
}

TEST(ServeEndToEnd, StatusSnapshotHoldsTheAccountingIdentity) {
  const std::string path = test_socket_path("status");
  serve::Server server(small_server(path));
  Client client(path);
  (void)client.run_sweep(kSweep);
  client.send("{\"op\":\"status\"}");
  const JsonValue status = client.recv();
  EXPECT_EQ(status.get_string("type", ""), "status");
  const JsonValue* sched = status.find("scheduler");
  ASSERT_NE(sched, nullptr);
  const long submitted = sched->get_int("submitted", -1);
  EXPECT_EQ(submitted, 2);
  EXPECT_EQ(sched->get_int("completed", -1) + sched->get_int("failed", -1) +
                sched->get_int("cancelled", -1) + sched->get_int("queued", -1) +
                sched->get_int("running", -1),
            submitted);
  const JsonValue* queue = status.find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->get_int("admitted", -1), 2);
  EXPECT_EQ(queue->get_int("dispatched", -1), 2);
  EXPECT_EQ(status.find("server")->get_int("results_streamed", -1), 2);
  EXPECT_EQ(status.get_int("tables_version", 0), 1);
  server.stop();
}

TEST(ServeEndToEnd, ConcurrentClientsTuneOncePerPlanCacheKey) {
  const std::string path = test_socket_path("plans");
  serve::Server server(small_server(path));
  // Two clients race the same auto spec on the same shape; the PlanCache
  // must run the tuner exactly once.
  constexpr const char* kAutoSweep =
      "scene=vacuum;grid=10x10x16;lambda=13,15;steps=4;threads=2;engine=auto;pml=3";
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      try {
        Client client(path);
        const Client::SweepOutcome out = client.run_sweep(kAutoSweep);
        if (out.results.size() != 2) ++failures;
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  Client client(path);
  client.send("{\"op\":\"status\"}");
  const JsonValue status = client.recv();
  const JsonValue* plans = status.find("scheduler")->find("plans");
  ASSERT_NE(plans, nullptr);
  EXPECT_EQ(plans->get_int("misses", -1), 1);
  EXPECT_EQ(plans->get_int("hits", -1), 3);
  server.stop();
}

TEST(ServeEndToEnd, ReloadUnderLoadNeverDisturbsInFlightJobs) {
  const std::string path = test_socket_path("reload");
  serve::Server server(small_server(path));

  // Admit the sweep first: jobs copy their Scene during request handling,
  // before the ack frame goes out, so waiting for the ack pins the sweep to
  // the builtin tables without racing the reloader over admission.
  Client client(path);
  {
    std::ostringstream os;
    os << "{\"op\":\"sweep\",\"spec\":" << util::json_quote(kSweep) << '}';
    client.send(os.str());
  }
  const JsonValue ack = client.recv();
  ASSERT_EQ(ack.get_string("type", ""), "ack");

  // Reload hammers the tables — including an override of the very scene the
  // sweep uses — while the sweep runs.  Admitted jobs hold their Scene copy,
  // so the results must still be bit-exact with a quiet run.
  std::atomic<bool> stop_reloading{false};
  std::thread reloader([&] {
    Client reload_client(path);
    const std::string payload =
        R"({"op":"reload","tables":{"scenes":[{"name":"layered",
            "layers":[{"material":"silver","z":[0.0,0.9]}]}]}})";
    while (!stop_reloading.load()) {
      reload_client.send(payload);
      const JsonValue reply = reload_client.recv();
      ASSERT_EQ(reply.get_string("type", ""), "reloaded");
    }
  });

  Client::SweepOutcome remote;
  ASSERT_NO_THROW(remote = client.collect());
  stop_reloading.store(true);
  reloader.join();

  const serve::SweepSpec spec = serve::parse_sweep_spec(kSweep);
  const serve::Tables tables = serve::builtin_tables();
  batch::SweepConfig sweep = serve::to_sweep_config(spec, *tables.find(spec.scene));
  sweep.scheduler.concurrency = 1;
  sweep.scheduler.pin_slots = false;
  const batch::SweepResult local = batch::run_sweep(sweep);
  ASSERT_EQ(remote.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(remote.results.at(i).ok);
    EXPECT_EQ(remote.results.at(i).total_energy, local.results[i].total_energy);
  }
  server.stop();
}

/// The latch a `gate` engine's run() blocks on until it opens.
class GateLatch {
 public:
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
};

GateLatch& gate_latch() {
  static GateLatch latch;
  return latch;
}

/// Engine kind `gate`, registered in the global registry for this test
/// binary: run() steps nothing and returns once the gate latch opens.  The
/// daemon checks no engine kind at admission, so a sweep with engine=gate
/// reaches it.
class GateEngine final : public exec::Engine {
 public:
  std::string name() const override { return "gate"; }
  int threads() const override { return 1; }
  void run(grid::FieldSet&, int steps) override {
    gate_latch().wait();
    stats_ = exec::EngineStats{};
    stats_.steps = steps;
  }
};

void register_gate_engine() {
  static const bool registered = [] {
    exec::EngineRegistry::global().register_builder(
        "gate", [](const exec::EngineSpec&, const exec::BuildContext&) {
          return std::make_unique<GateEngine>();
        });
    return true;
  }();
  (void)registered;
}

/// Occupy the single executor with a gate job so queue contents are
/// deterministic, run `body`, then release the gate and drain.  The gate
/// job's engine holds its slot until finish_gate() (or the destructor, so
/// a failing case cannot hang) opens the latch.
class GatedServer {
 public:
  explicit GatedServer(const std::string& path, serve::ServerConfig cfg)
      : server_(std::move(cfg)), gate_client_(path) {
    register_gate_engine();
    gate_latch().close();
    gate_client_.send(
        "{\"op\":\"sweep\",\"id\":\"gate\",\"spec\":"
        "\"scene=vacuum;grid=10x10x16;lambda=20;steps=1;threads=1;"
        "engine=gate;pml=3\"}");
    wait_until_running();
  }
  ~GatedServer() { gate_latch().open(); }
  GatedServer(const GatedServer&) = delete;
  GatedServer& operator=(const GatedServer&) = delete;

  serve::Server& server() { return server_; }
  Client::SweepOutcome finish_gate() {
    gate_latch().open();
    return gate_client_.collect();
  }

 private:
  void wait_until_running() {
    // Wait until the gate job holds the inflight slot.
    for (int spin = 0; spin < 2000; ++spin) {
      const JsonValue status = JsonValue::parse(server_.status_json());
      if (status.find("scheduler")->get_int("running", 0) >= 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "gate job never started";
  }

  serve::Server server_;
  Client gate_client_;
};

/// Prometheus text samples keyed by "name{labels}"; # comment lines skipped.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    out[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return out;
}

/// The member of `doc` at a dotted status path ("scheduler.pool.engine_hits").
const JsonValue* at_path(const JsonValue& doc, const std::string& path) {
  const JsonValue* v = &doc;
  for (std::size_t begin = 0;;) {
    const std::size_t dot = path.find('.', begin);
    v = v->find(path.substr(begin, dot - begin));
    if (v == nullptr || dot == std::string::npos) return v;
    begin = dot + 1;
  }
}

/// One metrics reply's Prometheus samples against its own embedded status:
/// every mirrored field of serve::status_fields plus the engine.* series of
/// scheduler.engine.  Lists the series that disagree or are missing.
struct MirrorCheck {
  std::size_t mirrored = 0;  // status_fields rows walked
  std::vector<std::string> mismatches;
};
MirrorCheck check_mirror(const JsonValue& reply) {
  MirrorCheck out;
  const JsonValue* status = reply.find("status");
  if (status == nullptr) {
    out.mismatches.push_back("reply without status");
    return out;
  }
  const std::map<std::string, double> prom =
      parse_prometheus(reply.get_string("prometheus", ""));
  const auto compare = [&](const std::string& metric, const std::string& labels,
                           const JsonValue* value) {
    std::string key = "emwd_" + metric;
    std::replace(key.begin(), key.end(), '.', '_');
    if (!labels.empty()) key += '{' + labels + '}';
    const auto it = prom.find(key);
    if (value == nullptr || it == prom.end() || it->second != value->as_number()) {
      out.mismatches.push_back(key);
    }
  };
  for (const serve::StatusField& f : serve::status_fields({})) {
    if (f.metric == nullptr) continue;
    ++out.mirrored;
    compare(f.metric, f.labels, at_path(*status, f.path));
  }
  const JsonValue* engine = at_path(*status, "scheduler.engine");
  for (const char* name : {"steps", "lups", "tiles_executed", "halo_bytes_moved", "seconds",
                           "mlups", "halo_exposed_seconds"}) {
    compare(std::string("engine.") + name, "", engine ? engine->find(name) : nullptr);
  }
  return out;
}

TEST(ServeStatus, FixedSnapshotRendersThePinnedDocumentAndSeries) {
  // The expected texts pin the wire format: keys, their order, series names
  // and kinds.  Every field is distinct, so a value under the wrong key shows.
  serve::StatusSnapshot s;
  serve::Metrics& m = s.server;
  m.connections_total = 1;
  m.connections_active = 2;
  m.requests = 3;
  m.protocol_errors = 4;
  m.results_streamed = 5;
  m.reloads = 6;
  m.inflight = 7;
  m.preempt_requests = 8;
  m.auto_preemptions = 9;
  m.job_failures = {10, 11, 12};
  m.clients = {{13, 14, {15, 16, 17}}, {18, 19, {20, 21, 22}}};
  serve::FairShareQueue::Stats& q = s.queue;
  q.admitted = 23;
  q.rejected_queue_full = 24;
  q.rejected_client_full = 25;
  q.dispatched = 26;
  q.cancelled = 27;
  q.pending = 28;
  q.clients = 29;
  batch::BatchStats& b = s.scheduler;
  b.submitted = 30;
  b.completed = 31;
  b.failed = 32;
  b.cancelled = 33;
  b.queued = 34;
  b.running = 35;
  b.queue_depth = {{-1, 36}, {2, 37}};
  b.preempted = 38;
  b.resumed = 39;
  b.snapshots_written = 40;
  b.snapshot_bytes = 41;
  b.retries = 42;
  b.quarantined = 43;
  b.pool = {44, 45, 46, 47, 48, 49, 50, 51};
  b.plans = {52, 53};
  b.slots = 54;
  b.executors = 55;
  exec::EngineStats& e = b.engine;
  e.seconds = 0.75;
  e.steps = 56;
  e.lups = 57;
  e.mlups = 0.25;
  e.tiles_executed = 58;
  e.barrier_episodes = 59;
  e.queue_wait_seconds = 0.125;
  e.barrier_wait_seconds = 0.0625;
  e.shards = 60;
  e.halo_exchange_seconds = 1.5;
  e.halo_bytes_moved = 61;
  e.halo_wait_seconds = 2.5;
  e.halo_hidden_seconds = 0.5;
  e.halo_staged_bytes = 63;
  e.halo_unstaged_bytes = 64;
  e.halo_stage_seconds = 0.03125;
  e.halo_unstage_seconds = 0.015625;
  e.halo_transport = "shm";
  e.kernel_isa = "avx2";
  s.tables_version = 62;

  EXPECT_EQ(
      serve::status_to_json(s),
      R"({"type":"status","server":{"connections_total":1,)"
      R"("connections_active":2,"requests":3,"protocol_errors":4,)"
      R"("results_streamed":5,"reloads":6,"inflight":7,"preempt_requests":8,)"
      R"("auto_preemptions":9,"job_failures":{"transient":10,"permanent":11,)"
      R"("deadline":12},"clients":[{"id":13,"results":14,"failed_transient":15,)"
      R"("failed_permanent":16,"failed_deadline":17},{"id":18,"results":19,)"
      R"("failed_transient":20,"failed_permanent":21,"failed_deadline":22}]},)"
      R"("queue":{"admitted":23,"rejected_queue_full":24,)"
      R"("rejected_client_full":25,"dispatched":26,"cancelled":27,"pending":28,)"
      R"("clients":29},"scheduler":{"submitted":30,"completed":31,"failed":32,)"
      R"("cancelled":33,"queued":34,"running":35,"preempted":38,"resumed":39,)"
      R"("snapshots_written":40,"snapshot_bytes":41,"retries":42,)"
      R"("quarantined":43,"queue_depth":{"-1":36,"2":37},"slots":54,)"
      R"("executors":55,"pool":{"engine_hits":44,"engine_builds":45,)"
      R"("fields_hits":46,"fields_builds":47,"engine_evictions":48,)"
      R"("fields_evictions":49,"idle_engines":50,"idle_fields":51},)"
      R"("plans":{"hits":52,"misses":53},"engine":{"seconds":0.75,"steps":56,)"
      R"("lups":57,"mlups":0.25,"tiles_executed":58,"barrier_episodes":59,)"
      R"("queue_wait_seconds":0.125,"barrier_wait_seconds":0.0625,"shards":60,)"
      R"("halo_exchange_seconds":1.5,"halo_bytes_moved":61,)"
      R"("halo_wait_seconds":2.5,"halo_hidden_seconds":0.5,)"
      R"("halo_exposed_seconds":3.5,"halo_staged_bytes":63,)"
      R"("halo_unstaged_bytes":64,"halo_stage_seconds":0.03125,)"
      R"("halo_unstage_seconds":0.015625,"halo_transport":"shm",)"
      R"("kernel_isa":"avx2"}},"tables_version":62})");

  obs::Registry reg;
  serve::fill_registry(reg, s);
  EXPECT_EQ(reg.to_prometheus(), R"(# TYPE emwd_engine_halo_bytes_moved counter
emwd_engine_halo_bytes_moved 61
# TYPE emwd_engine_halo_exposed_seconds gauge
emwd_engine_halo_exposed_seconds 3.5
# TYPE emwd_engine_lups counter
emwd_engine_lups 57
# TYPE emwd_engine_mlups gauge
emwd_engine_mlups 0.25
# TYPE emwd_engine_seconds gauge
emwd_engine_seconds 0.75
# TYPE emwd_engine_steps counter
emwd_engine_steps 56
# TYPE emwd_engine_tiles_executed counter
emwd_engine_tiles_executed 58
# TYPE emwd_queue_admitted counter
emwd_queue_admitted 23
# TYPE emwd_queue_cancelled counter
emwd_queue_cancelled 27
# TYPE emwd_queue_clients gauge
emwd_queue_clients 29
# TYPE emwd_queue_dispatched counter
emwd_queue_dispatched 26
# TYPE emwd_queue_pending gauge
emwd_queue_pending 28
# TYPE emwd_queue_rejected counter
emwd_queue_rejected{reason="client_full"} 25
emwd_queue_rejected{reason="queue_full"} 24
# TYPE emwd_sched_jobs_cancelled counter
emwd_sched_jobs_cancelled 33
# TYPE emwd_sched_jobs_completed counter
emwd_sched_jobs_completed 31
# TYPE emwd_sched_jobs_failed counter
emwd_sched_jobs_failed 32
# TYPE emwd_sched_jobs_queued gauge
emwd_sched_jobs_queued 34
# TYPE emwd_sched_jobs_running gauge
emwd_sched_jobs_running 35
# TYPE emwd_sched_jobs_submitted counter
emwd_sched_jobs_submitted 30
# TYPE emwd_sched_plan_cache_hits counter
emwd_sched_plan_cache_hits 52
# TYPE emwd_sched_plan_cache_misses counter
emwd_sched_plan_cache_misses 53
# TYPE emwd_sched_pool_engine_builds counter
emwd_sched_pool_engine_builds 45
# TYPE emwd_sched_pool_engine_hits counter
emwd_sched_pool_engine_hits 44
# TYPE emwd_sched_preempted counter
emwd_sched_preempted 38
# TYPE emwd_sched_quarantined counter
emwd_sched_quarantined 43
# TYPE emwd_sched_resumed counter
emwd_sched_resumed 39
# TYPE emwd_sched_retries counter
emwd_sched_retries 42
# TYPE emwd_sched_snapshot_bytes counter
emwd_sched_snapshot_bytes 41
# TYPE emwd_sched_snapshots_written counter
emwd_sched_snapshots_written 40
# TYPE emwd_serve_auto_preemptions counter
emwd_serve_auto_preemptions 9
# TYPE emwd_serve_connections_active gauge
emwd_serve_connections_active 2
# TYPE emwd_serve_connections_total counter
emwd_serve_connections_total 1
# TYPE emwd_serve_inflight gauge
emwd_serve_inflight 7
# TYPE emwd_serve_job_failures counter
emwd_serve_job_failures{class="deadline"} 12
emwd_serve_job_failures{class="permanent"} 11
emwd_serve_job_failures{class="transient"} 10
# TYPE emwd_serve_preempt_requests counter
emwd_serve_preempt_requests 8
# TYPE emwd_serve_protocol_errors counter
emwd_serve_protocol_errors 4
# TYPE emwd_serve_reloads counter
emwd_serve_reloads 6
# TYPE emwd_serve_requests counter
emwd_serve_requests 3
# TYPE emwd_serve_results_streamed counter
emwd_serve_results_streamed 5
# TYPE emwd_serve_tables_version gauge
emwd_serve_tables_version 62
)");
}

TEST(ServeEndToEnd, MetricsOpMatchesStatusFromOneSnapshot) {
  const std::string path = test_socket_path("metrics");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  // Scrape while the gate job holds the only slot: the running/queued
  // gauges are live, so any two-pass collection would race and disagree.
  GatedServer gated(path, cfg);

  // A metric counted where it happens lives in the process-wide registry,
  // whose text follows the reply's own mirror.
  obs::Registry::global().counter("test.serve.counted_at_site").inc();
  Client client(path);
  Client second(path);
  (void)second;  // a second connection so connections_active > 1
  client.send("{\"op\":\"metrics\"}");
  const JsonValue metrics = client.recv();
  EXPECT_EQ(metrics.get_string("type", ""), "metrics");
  const std::map<std::string, double> prom =
      parse_prometheus(metrics.get_string("prometheus", ""));
  ASSERT_FALSE(prom.empty());

  // Every mirrored field agrees exactly with the status in the same reply:
  // both were rendered from the ONE collect_status() snapshot behind it.
  const MirrorCheck check = check_mirror(metrics);
  EXPECT_GE(check.mirrored, 36u);
  EXPECT_TRUE(check.mismatches.empty()) << check.mismatches.front();
  EXPECT_EQ(prom.count("emwd_fault_armed"), 1u);  // the fault bridge
  EXPECT_EQ(prom.count("emwd_test_serve_counted_at_site"), 1u);
  // The gate job is mid-flight, so the identity has live terms in it.
  const auto sample = [&prom](const char* key) { return prom.at(key); };
  EXPECT_GE(sample("emwd_sched_jobs_running"), 1.0);
  EXPECT_EQ(sample("emwd_sched_jobs_queued") + sample("emwd_sched_jobs_running") +
                sample("emwd_sched_jobs_completed") + sample("emwd_sched_jobs_failed") +
                sample("emwd_sched_jobs_cancelled"),
            sample("emwd_sched_jobs_submitted"));

  const Client::SweepOutcome gate = gated.finish_gate();
  EXPECT_EQ(gate.results.size(), 1u);
  gated.server().stop();
}

TEST(ServeEndToEnd, ConcurrentMetricsScrapesEachMatchTheirOwnStatus) {
  // Two clients scrape at once.  Each reply mirrors its snapshot into a
  // registry of its own, so every reply's samples equal its own embedded
  // status; a registry shared across scrapes lets one scrape's values
  // overwrite the other's between fill and render.
  const std::string path = test_socket_path("scrapes");
  serve::Server server(small_server(path));
  constexpr int kScrapes = 500;
  std::atomic<int> bad_replies{0};
  std::mutex first_mu;
  std::string first_mismatch;
  std::vector<std::thread> scrapers;
  for (int c = 0; c < 2; ++c) {
    scrapers.emplace_back([&] {
      Client client(path);
      for (int i = 0; i < kScrapes; ++i) {
        client.send("{\"op\":\"metrics\"}");
        const MirrorCheck check = check_mirror(client.recv());
        if (check.mismatches.empty()) continue;
        ++bad_replies;
        std::lock_guard<std::mutex> lock(first_mu);
        if (first_mismatch.empty()) first_mismatch = check.mismatches.front();
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(bad_replies.load(), 0) << "first mismatched series: " << first_mismatch;
  server.stop();
}

TEST(ServeEndToEnd, AdmissionBoundRejectsExplicitlyAndStillCompletes) {
  const std::string path = test_socket_path("reject");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  cfg.admission.max_pending = 1;
  GatedServer gated(path, cfg);

  // One inflight slot is held by the gate and the pending queue holds one
  // job, so a four-job sweep gets exactly one admission and three rejects.
  // Admission answers (the ack, then the rejects) before the gate opens;
  // the admitted job's result follows it.
  Client client(path);
  client.send(
      "{\"op\":\"sweep\",\"spec\":\"scene=vacuum;grid=10x10x16;lambda=11,12,13,14;"
      "steps=5;threads=1;engine=naive;pml=3\"}");
  const JsonValue ack = client.recv();
  EXPECT_EQ(ack.get_string("type", ""), "ack");
  EXPECT_EQ(ack.get_int("jobs", 0), 4);
  const JsonValue rejected = client.recv();
  EXPECT_EQ(rejected.get_string("type", ""), "rejected");
  EXPECT_EQ(rejected.get_int("count", 0), 3);

  const Client::SweepOutcome gate = gated.finish_gate();
  EXPECT_EQ(gate.results.size(), 1u);
  const Client::SweepOutcome out = client.collect();
  ASSERT_EQ(out.results.size(), 1u);
  EXPECT_TRUE(out.results.begin()->second.ok);
  gated.server().stop();
}

TEST(ServeEndToEnd, CancelDropsPendingJobsAsCancelledResults) {
  const std::string path = test_socket_path("cancel");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  GatedServer gated(path, cfg);

  Client client(path);
  client.send(
      "{\"op\":\"sweep\",\"spec\":\"scene=vacuum;grid=10x10x16;lambda=11,12,13;"
      "steps=5;threads=1;engine=naive;pml=3\"}");
  const JsonValue ack = client.recv();
  ASSERT_EQ(ack.get_string("type", ""), "ack");
  client.send("{\"op\":\"cancel\"}");

  std::size_t cancelled = 0;
  std::size_t cancel_acked = 0;
  for (;;) {
    const JsonValue frame = client.recv();
    const std::string type = frame.get_string("type", "");
    if (type == "ack") {
      cancel_acked = static_cast<std::size_t>(frame.get_int("jobs", 0));
    } else if (type == "result") {
      EXPECT_EQ(frame.find("result")->get_string("status", ""), "cancelled");
      EXPECT_EQ(frame.find("result")->get_string("class", ""), "cancelled");
      ++cancelled;
    } else if (type == "done") {
      break;
    }
  }
  EXPECT_EQ(cancel_acked, 3u);
  EXPECT_EQ(cancelled, 3u);

  const Client::SweepOutcome gate = gated.finish_gate();
  EXPECT_EQ(gate.results.size(), 1u);
  gated.server().stop();
}

TEST(ServeEndToEnd, ByteSoupGetsAnErrorFrameAndTheConnectionSurvives) {
  const std::string path = test_socket_path("soup");
  serve::Server server(small_server(path));
  Client client(path);
  const std::vector<std::string> soups = {
      "",          std::string("\x00\xff\xfe garbage", 11),
      "{",         "[1,2,3]",
      "{\"op\":42}", "{\"op\":\"sweep\",\"spec\":\"@@\"}"};
  for (const std::string& soup : soups) {
    client.send(soup);
    EXPECT_EQ(client.recv().get_string("type", ""), "error") << soup;
  }
  client.send("{\"op\":\"ping\"}");
  EXPECT_EQ(client.recv().get_string("type", ""), "pong");
  server.stop();
}

TEST(ServeEndToEnd, OversizedFrameAnnouncementDropsTheConnection) {
  const std::string path = test_socket_path("oversize");
  serve::ServerConfig cfg = small_server(path);
  cfg.max_frame = 1024;
  serve::Server server(std::move(cfg));
  Client client(path);
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(client.fd.get(), header, 4, 0), 4);
  EXPECT_EQ(client.recv().get_string("type", ""), "error");
  EXPECT_FALSE(util::recv_frame(client.fd.get(), serve::kMaxFrame).has_value());
  server.stop();
}

TEST(ServeEndToEnd, ClientShutdownOpStopsTheServer) {
  const std::string path = test_socket_path("shutdown");
  serve::Server server(small_server(path));
  Client client(path);
  client.send("{\"op\":\"shutdown\"}");
  EXPECT_EQ(client.recv().get_string("type", ""), "ack");
  server.wait_for_stop();  // returns only because the op fired request_stop
  server.stop();
  EXPECT_THROW(Client other(path), std::system_error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeEndToEnd, StopRemovesTheSocketFile) {
  const std::string path = test_socket_path("unlink");
  serve::Server server(small_server(path));
  EXPECT_TRUE(std::filesystem::is_socket(path));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));
  server.stop();  // idempotent: nothing left to remove
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeEndToEnd, StopLeavesAReplacementSocketAlone) {
  // A second server on the same path replaces the first one's socket file;
  // stopping the first must not take the second one's file with it.
  const std::string path = test_socket_path("replaced");
  serve::Server first(small_server(path));
  serve::Server second(small_server(path));
  first.stop();
  ASSERT_TRUE(std::filesystem::is_socket(path));
  Client client(path);
  client.send("{\"op\":\"ping\"}");
  EXPECT_EQ(client.recv().get_string("type", ""), "pong");
  second.stop();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeEndToEnd, DisconnectedClientsPendingJobsAreDropped) {
  const std::string path = test_socket_path("vanish");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  GatedServer gated(path, cfg);
  {
    Client client(path);
    client.send(
        "{\"op\":\"sweep\",\"spec\":\"scene=vacuum;grid=10x10x16;lambda=11,12;"
        "steps=5;threads=1;engine=naive;pml=3\"}");
    (void)client.recv();  // ack, then hang up with jobs still pending
  }
  // The gate holds the slot until the server has seen the hang-up and
  // dropped the jobs.
  for (int spin = 0; spin < 2000; ++spin) {
    const JsonValue status = JsonValue::parse(gated.server().status_json());
    if (status.find("queue")->get_int("cancelled", -1) >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const Client::SweepOutcome gate = gated.finish_gate();
  EXPECT_EQ(gate.results.size(), 1u);
  // The vanished client's jobs never ran: submitted == gate only, and the
  // queue recorded the drop.
  const JsonValue status = JsonValue::parse(gated.server().status_json());
  EXPECT_EQ(status.find("scheduler")->get_int("submitted", -1), 1);
  EXPECT_EQ(status.find("queue")->get_int("cancelled", -1), 2);
  gated.server().stop();
}

// Regression: a client hanging up with jobs still queued exits through
// cancel_client -> find_session, which locks the session map — while the
// accept thread reaps finished sessions on every new connection.  Joining
// the exiting thread under the map lock deadlocked the accept loop; churn
// disconnects against fresh connections to drive the two into each other.
TEST(ServeEndToEnd, DisconnectChurnWithPendingJobsDoesNotWedgeAccept) {
  const std::string path = test_socket_path("churn");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  GatedServer gated(path, cfg);
  for (int round = 0; round < 25; ++round) {
    {
      Client victim(path);
      victim.send(
          "{\"op\":\"sweep\",\"spec\":\"scene=vacuum;grid=10x10x16;lambda=11,12;"
          "steps=5;threads=1;engine=naive;pml=3\"}");
      (void)victim.recv();  // ack; hang up with both jobs still pending
    }
    // The accept for this connection reaps the exiting session while it may
    // still be cancelling its queued jobs; a wedged accept loop fails the
    // ping below instead of hanging the whole suite.
    Client fresh(path);
    fresh.send("{\"op\":\"ping\"}");
    EXPECT_EQ(fresh.recv().get_string("type", ""), "pong");
  }
  const Client::SweepOutcome gate = gated.finish_gate();
  EXPECT_EQ(gate.results.size(), 1u);
  gated.server().stop();
}

// -------------------------------------------------- preemption over the wire

TEST(ServeProtocol, SweepSpecCarriesPreemptible) {
  const serve::SweepSpec spec = serve::parse_sweep_spec(
      "scene=vacuum;grid=10x10x16;lambda=13;steps=4;preemptible=1");
  EXPECT_TRUE(spec.preemptible);
  const serve::Tables tables = serve::builtin_tables();
  const batch::SweepConfig cfg =
      serve::to_sweep_config(spec, *tables.find("vacuum"));
  EXPECT_TRUE(cfg.preemptible);
  EXPECT_THROW(serve::parse_sweep_spec("scene=vacuum;preemptible=2"),
               std::invalid_argument);
}

TEST(ServeEndToEnd, PreemptAndCheckpointOpsAckAndStatusCarriesCounters) {
  const std::string path = test_socket_path("preempt");
  serve::Server server(small_server(path));
  Client client(path);

  // Idle daemon: both ops ack with a zero count — nothing runs yet.
  client.send("{\"op\":\"preempt\",\"count\":3}");
  JsonValue ack = client.recv();
  EXPECT_EQ(ack.get_string("type", ""), "ack");
  EXPECT_EQ(ack.get_int("jobs", -1), 0);

  client.send("{\"op\":\"checkpoint\"}");
  ack = client.recv();
  EXPECT_EQ(ack.get_string("type", ""), "ack");
  EXPECT_EQ(ack.get_int("jobs", -1), 0);

  // Bad count is a protocol error, and the connection survives it.
  client.send("{\"op\":\"preempt\",\"count\":0}");
  EXPECT_EQ(client.recv().get_string("type", ""), "error");

  client.send("{\"op\":\"status\"}");
  const JsonValue status = client.recv();
  const JsonValue* srv = status.find("server");
  ASSERT_NE(srv, nullptr);
  EXPECT_EQ(srv->get_int("preempt_requests", -1), 1);
  EXPECT_EQ(srv->get_int("auto_preemptions", -1), 0);
  const JsonValue* sched = status.find("scheduler");
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->get_int("preempted", -1), 0);
  EXPECT_EQ(sched->get_int("resumed", -1), 0);
  EXPECT_EQ(sched->get_int("snapshots_written", -1), 0);
  EXPECT_EQ(sched->get_int("snapshot_bytes", -1), 0);
  server.stop();
}

TEST(ServeEndToEnd, PreemptibleSweepCompletesBitExactAfterPreemptOps) {
  // A preemptible sweep bombarded with preempt ops must still deliver every
  // result, bit-exact with the in-process baseline — preemption parks and
  // resumes, it never corrupts or drops work.
  constexpr const char* kPreemptibleSweep =
      "scene=layered;grid=10x10x16;lambda=16,22;steps=30;threads=2;"
      "engine=naive;pml=3;preemptible=1";
  const std::string path = test_socket_path("preemptrun");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;  // serialize so preempts can land mid-run
  cfg.scheduler.preempt_check_every = 2;
  serve::Server server(cfg);

  Client sweeper(path);
  std::ostringstream os;
  os << "{\"op\":\"sweep\",\"spec\":" << util::json_quote(kPreemptibleSweep) << '}';
  sweeper.send(os.str());

  // Pepper the daemon with preempt requests from a second connection while
  // the sweep runs; each one acks with however many jobs it flagged.
  Client poker(path);
  std::size_t preempted = 0;
  for (int i = 0; i < 6; ++i) {
    poker.send("{\"op\":\"preempt\"}");
    preempted += static_cast<std::size_t>(poker.recv().get_int("jobs", 0));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const Client::SweepOutcome remote = sweeper.collect();
  ASSERT_EQ(remote.results.size(), 2u);

  batch::SweepConfig local_cfg = serve::to_sweep_config(
      serve::parse_sweep_spec(kPreemptibleSweep), *serve::builtin_tables().find("layered"));
  local_cfg.preemptible = false;  // uninterrupted baseline
  local_cfg.scheduler.concurrency = 1;
  local_cfg.scheduler.pin_slots = false;
  const batch::SweepResult local = batch::run_sweep(local_cfg);

  std::size_t result_preempts = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const batch::JobResult& r = remote.results.at(i);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.steps_done, local.results[i].steps_done);
    EXPECT_EQ(r.total_energy, local.results[i].total_energy) << "job " << i;
    EXPECT_EQ(r.electric_energy, local.results[i].electric_energy);
    result_preempts += static_cast<std::size_t>(r.preemptions);
  }
  // An ack counts flags landed; a flag that lands after a job's final poll
  // boundary is harmlessly lost when the job just finishes — so the acks
  // bound the preemptions that actually happened (timing decides how many).
  EXPECT_LE(result_preempts, preempted);

  poker.send("{\"op\":\"status\"}");
  const JsonValue status = poker.recv();
  EXPECT_EQ(static_cast<std::size_t>(
                status.find("scheduler")->get_int("preempted", -1)),
            result_preempts);
  server.stop();
}

// ------------------------------------------------------- graceful degradation
// Error classes on the wire, retry_after hints on capacity rejects and
// per-class / per-client failure counters (src/serve/README.md "Failure
// semantics").

TEST(ServeProtocol, SweepSpecCarriesFailurePolicies) {
  const serve::SweepSpec spec = serve::parse_sweep_spec(
      "scene=vacuum;grid=10x10x16;lambda=20;steps=5;retries=3;backoff=0.1;"
      "deadline=7.5");
  EXPECT_EQ(spec.retries, 3);
  EXPECT_EQ(spec.backoff, 0.1);
  EXPECT_EQ(spec.deadline, 7.5);
  const batch::SweepConfig cfg =
      serve::to_sweep_config(spec, *serve::builtin_tables().find("vacuum"));
  EXPECT_EQ(cfg.retry.max_attempts, 3);
  EXPECT_EQ(cfg.retry.backoff_seconds, 0.1);
  EXPECT_EQ(cfg.deadline_seconds, 7.5);
  EXPECT_THROW(serve::parse_sweep_spec("retries=0;steps=1"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("backoff=-1;steps=1"), std::invalid_argument);
  EXPECT_THROW(serve::parse_sweep_spec("deadline=-1;steps=1"), std::invalid_argument);
}

TEST(ServeDegradation, BadRequestsAreClassedPermanentOnTheWire) {
  const std::string path = test_socket_path("class");
  serve::Server server(small_server(path));
  Client client(path);
  // Malformed JSON and an unknown scene are both the client's fault: the
  // identical bytes will never succeed, so the class must be "permanent".
  for (const std::string bad :
       {std::string("{"),
        std::string("{\"op\":\"sweep\",\"spec\":\"scene=nope;steps=1\"}")}) {
    client.send(bad);
    const JsonValue frame = client.recv();
    EXPECT_EQ(frame.get_string("type", ""), "error") << bad;
    EXPECT_EQ(frame.get_string("class", ""), "permanent") << bad;
  }
  server.stop();
}

TEST(ServeDegradation, CapacityRejectsAreTransientWithRetryAfter) {
  const std::string path = test_socket_path("retry_after");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  cfg.max_inflight = 1;
  cfg.admission.max_pending = 1;
  cfg.auto_preempt = false;
  GatedServer gated(path, cfg);

  Client client(path);
  client.send(
      "{\"op\":\"sweep\",\"spec\":\"scene=vacuum;grid=10x10x16;lambda=11,12,13;"
      "steps=5;threads=1;engine=naive;pml=3\"}");
  // Admission answers with the ack, then the rejects, before the gate
  // opens; the admitted job's result and the done frame follow it.
  EXPECT_EQ(client.recv().get_string("type", ""), "ack");
  const JsonValue frame = client.recv();
  EXPECT_EQ(frame.get_string("type", ""), "rejected");
  EXPECT_EQ(frame.get_string("class", ""), "transient");
  // The backpressure hint: positive, bounded, grows with the backlog.
  const double hint = frame.get_double("retry_after", -1.0);
  EXPECT_GT(hint, 0.0);
  EXPECT_LE(hint, 5.0);

  gated.finish_gate();
  EXPECT_EQ(client.collect().results.size(), 1u);
  gated.server().stop();
}

TEST(ServeDegradation, JobFailuresCountPerClassAndPerClientInStatus) {
  const std::string path = test_socket_path("failcount");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  serve::Server server(std::move(cfg));

  // One injected transient failure; the cap spends the trigger so the
  // second wavelength (and any retry) runs clean.
  fault::configure("engine.step=once:1");
  Client client(path);
  const Client::SweepOutcome out = client.run_sweep(
      "scene=vacuum;grid=10x10x16;lambda=11,12;steps=5;threads=1;"
      "engine=naive;pml=3");
  fault::disarm();
  ASSERT_EQ(out.results.size(), 2u);
  int failed = 0;
  for (const auto& [index, r] : out.results) {
    if (!r.ok) {
      ++failed;
      EXPECT_EQ(r.error_class, "transient");
    }
  }
  ASSERT_EQ(failed, 1);

  client.send("{\"op\":\"status\"}");
  const JsonValue status = client.recv();
  const JsonValue* srv = status.find("server");
  ASSERT_NE(srv, nullptr);
  const JsonValue* failures = srv->find("job_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->get_int("transient", -1), 1);
  EXPECT_EQ(failures->get_int("permanent", -1), 0);
  EXPECT_EQ(failures->get_int("deadline", -1), 0);
  // Our live connection appears in the per-client breakdown.
  const JsonValue* clients = srv->find("clients");
  ASSERT_NE(clients, nullptr);
  ASSERT_TRUE(clients->is_array());
  bool found = false;
  for (const JsonValue& c : clients->as_array()) {
    if (c.get_int("failed_transient", 0) == 1) {
      found = true;
      EXPECT_GE(c.get_int("results", 0), 2);
    }
  }
  EXPECT_TRUE(found);
  server.stop();
}

TEST(ServeDegradation, SpecRetriesRecoverAnInjectedFaultBitExactly) {
  const std::string path = test_socket_path("specretry");
  serve::ServerConfig cfg = small_server(path);
  cfg.scheduler.concurrency = 1;
  serve::Server server(std::move(cfg));

  // Fault-free reference, in-process.
  const std::string spec_text =
      "scene=vacuum;grid=10x10x16;lambda=20;steps=5;threads=1;engine=naive;"
      "pml=3";
  batch::SweepConfig local_cfg = serve::to_sweep_config(
      serve::parse_sweep_spec(spec_text), *serve::builtin_tables().find("vacuum"));
  local_cfg.scheduler.concurrency = 1;
  local_cfg.scheduler.pin_slots = false;
  const batch::SweepResult local = batch::run_sweep(local_cfg);
  ASSERT_TRUE(local.results[0].ok);

  fault::configure("engine.step=once:1");
  Client client(path);
  const Client::SweepOutcome out = client.run_sweep(spec_text + ";retries=2");
  fault::disarm();
  ASSERT_EQ(out.results.size(), 1u);
  const batch::JobResult& r = out.results.at(0);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.total_energy, local.results[0].total_energy);
  EXPECT_EQ(r.electric_energy, local.results[0].electric_energy);

  client.send("{\"op\":\"status\"}");
  const JsonValue status = client.recv();
  EXPECT_EQ(status.find("scheduler")->get_int("retries", -1), 1);
  EXPECT_EQ(status.find("server")->find("job_failures")->get_int("transient", -1),
            0);  // the retry absorbed the fault: nothing failed on the wire
  server.stop();
}

}  // namespace
