// Unit tests for src/obs/: the metrics registry (counters, gauges,
// histograms, both exporters, registration conflicts), the span tracer
// (disarmed no-op, Chrome export, nesting validation, ring-overflow drop
// accounting, correlation propagation through exec::ThreadTeam) and the
// fault-counter bridge.  The concurrency tests run under TSan in CI: the
// record path publishes ring slots with a release size store and the
// exporters snapshot the published prefix, so armed tracing plus a
// concurrent scrape must be race-free by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "fault/inject.hpp"
#include "obs/bridge.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using namespace emwd;

/// Every test leaves the process-wide tracer disarmed and empty.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::stop_tracing();
    obs::start_tracing();  // discard this test's rings
    obs::stop_tracing();
  }
};

/// The exported document's event array, parsed.
util::JsonValue::Array trace_events() {
  const util::JsonValue doc = util::JsonValue::parse(obs::chrome_trace_json());
  const util::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    ADD_FAILURE() << "trace document without a traceEvents array";
    return {};
  }
  return events->as_array();
}

TEST_F(TraceTest, DisarmedSitesRecordNothing) {
  obs::start_tracing();
  obs::stop_tracing();
  {
    OBS_SPAN("test.disarmed");
    OBS_INSTANT("test.disarmed.instant");
  }
  obs::emit_complete("test.disarmed.manual", obs::now_ns());
  const obs::TraceStats st = obs::trace_stats();
  EXPECT_EQ(st.events, 0u);
  EXPECT_EQ(st.dropped, 0u);
}

TEST_F(TraceTest, SpansExportPairedWithArgsAndCategories) {
  obs::start_tracing();
  {
    OBS_SPAN("test.outer", 7);
    {
      OBS_SPAN("test.inner");
    }
    OBS_INSTANT("test.mark", 3);
  }
  obs::stop_tracing();

  const obs::TraceStats st = obs::trace_stats();
  EXPECT_EQ(st.events, 3u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_GE(st.threads, 1u);
  EXPECT_TRUE(st.nesting_ok);

  int outer = 0, inner = 0, mark = 0;
  for (const util::JsonValue& ev : trace_events()) {
    const std::string name = ev.get_string("name", "");
    const std::string ph = ev.get_string("ph", "");
    EXPECT_NE(ev.find("ts"), nullptr);
    EXPECT_NE(ev.find("tid"), nullptr);
    if (name == "test.outer") {
      ++outer;
      EXPECT_EQ(ph, "X");
      EXPECT_NE(ev.find("dur"), nullptr);
      EXPECT_EQ(ev.get_string("cat", ""), "test");
      const util::JsonValue* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->get_int("arg", -1), 7);
    } else if (name == "test.inner") {
      ++inner;
      EXPECT_EQ(ph, "X");
    } else if (name == "test.mark") {
      ++mark;
      EXPECT_EQ(ph, "i");
      EXPECT_EQ(ev.find("dur"), nullptr);
    }
  }
  EXPECT_EQ(outer, 1);
  EXPECT_EQ(inner, 1);
  EXPECT_EQ(mark, 1);
}

TEST_F(TraceTest, FullRingDropsNewestAndCountsEveryDrop) {
  obs::TraceConfig cfg;
  cfg.ring_capacity = 4;
  obs::start_tracing(cfg);
  for (int i = 0; i < 100; ++i) OBS_INSTANT("test.flood", i);
  obs::stop_tracing();

  const obs::TraceStats st = obs::trace_stats();
  EXPECT_EQ(st.events, 4u);
  EXPECT_EQ(st.dropped, 96u);
  // The kept prefix is the OLDEST events (drops discard the newest), so
  // the exported args count up from zero.
  const util::JsonValue::Array events = trace_events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::JsonValue* args = events[i].find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->get_int("arg", -1), static_cast<long>(i));
  }
}

TEST_F(TraceTest, RestartDiscardsThePreviousSession) {
  obs::start_tracing();
  OBS_INSTANT("test.old");
  obs::start_tracing();  // restart while armed: old rings retire
  OBS_INSTANT("test.new");
  obs::stop_tracing();
  int old_events = 0, new_events = 0;
  for (const util::JsonValue& ev : trace_events()) {
    if (ev.get_string("name", "") == "test.old") ++old_events;
    if (ev.get_string("name", "") == "test.new") ++new_events;
  }
  EXPECT_EQ(old_events, 0);
  EXPECT_EQ(new_events, 1);
}

TEST_F(TraceTest, CorrelationPropagatesThroughThreadTeam) {
  obs::start_tracing();
  {
    obs::ScopedCorrelation scope(42);
    exec::ThreadTeam::run(3, [](int) { OBS_SPAN("test.work"); });
  }
  obs::stop_tracing();
  EXPECT_EQ(obs::correlation_id(), -1);  // scope restored

  int seen = 0;
  for (const util::JsonValue& ev : trace_events()) {
    if (ev.get_string("name", "") != "test.work") continue;
    ++seen;
    const util::JsonValue* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->get_int("job", -1), 42);
  }
  EXPECT_EQ(seen, 3);
}

// TSan gate: concurrent emitters on their own rings plus a scraper
// calling trace_stats/chrome_trace_json and a restart mid-flight.
TEST_F(TraceTest, ConcurrentEmittersAndScrapersAreRaceFree) {
  obs::TraceConfig cfg;
  cfg.ring_capacity = 256;
  obs::start_tracing(cfg);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&stop, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        OBS_SPAN("test.concurrent", w);
        OBS_INSTANT("test.tick", w);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    (void)obs::trace_stats();
    (void)obs::chrome_trace_json();
    if (i == 25) obs::start_tracing(cfg);  // restart under load
  }
  stop.store(true);
  for (std::thread& t : workers) t.join();
  obs::stop_tracing();
  const obs::TraceStats st = obs::trace_stats();
  EXPECT_TRUE(st.nesting_ok);
  EXPECT_NO_THROW(util::JsonValue::parse(obs::chrome_trace_json()));
}

// ---------------------------------------------------------------- registry

TEST(Registry, CountersGaugesAndIdentity) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.requests");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  // Re-registration with the same (name, labels) is the same metric;
  // another label body is a distinct series.
  EXPECT_EQ(&reg.counter("test.requests"), &c);
  obs::Counter& labeled = reg.counter("test.requests", "kind=\"slow\"");
  EXPECT_NE(&labeled, &c);
  labeled.set(9);
  EXPECT_EQ(labeled.value(), 9);

  obs::Gauge& g = reg.gauge("test.depth");
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.set(3.0);  // last write wins
  EXPECT_EQ(g.value(), 3.0);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("\nemwd_test_requests 5\n"), std::string::npos);
  EXPECT_NE(text.find("\nemwd_test_requests{kind=\"slow\"} 9\n"), std::string::npos);
  EXPECT_NE(text.find("\nemwd_test_depth 3\n"), std::string::npos);
}

TEST(Registry, HistogramBucketsAndExposition) {
  // Bounds and samples are exactly representable so sums compare with ==
  // and %.17g renders the short forms the assertions below expect.
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("test.latency", {0.25, 0.5, 2.0});
  h.observe(0.125);   // bucket 0
  h.observe(0.375);   // bucket 1
  h.observe(0.375);   // bucket 1
  h.observe(50.0);    // +inf
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 50.875);
  const std::vector<std::int64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 1);

  // Prometheus exposition: mangled name, # TYPE line, cumulative buckets.
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE emwd_test_latency histogram"), std::string::npos);
  EXPECT_NE(text.find("emwd_test_latency_bucket{le=\"0.5\"} 3"), std::string::npos);
  EXPECT_NE(text.find("emwd_test_latency_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("emwd_test_latency_count 4"), std::string::npos);
}

TEST(Registry, PrometheusRendersLabelsAndMangledNames) {
  obs::Registry reg;
  reg.counter("test.dotted-name.ok", "point=\"halo.wait\"").set(3);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE emwd_test_dotted_name_ok counter"), std::string::npos);
  EXPECT_NE(text.find("emwd_test_dotted_name_ok{point=\"halo.wait\"} 3"),
            std::string::npos);
}

TEST(Registry, RegistrationConflictsThrow) {
  obs::Registry reg;
  reg.counter("test.kind");
  EXPECT_THROW(reg.gauge("test.kind"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("test.kind", {1.0}), std::invalid_argument);
  reg.histogram("test.hist", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("test.hist", {1.0, 3.0}), std::invalid_argument);
  // Unordered bounds are rejected at registration.
  EXPECT_THROW(reg.histogram("test.bad", {2.0, 1.0}), std::invalid_argument);
}

// TSan gate: concurrent updaters on shared and distinct metrics plus a
// thread scraping the Prometheus text.
TEST(Registry, ConcurrentUpdatesAndScrapesAreRaceFree) {
  obs::Registry reg;
  obs::Counter& shared = reg.counter("test.shared");
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&reg, &shared, w] {
      obs::Counter& own =
          reg.counter("test.own", "tid=\"" + std::to_string(w) + "\"");
      for (int i = 0; i < 5000; ++i) {
        shared.inc();
        own.inc();
        reg.histogram("test.obs", {0.5, 1.5}).observe(static_cast<double>(i % 2));
      }
    });
  }
  for (int i = 0; i < 20; ++i) (void)reg.to_prometheus();
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(reg.counter("test.shared").value(), 4 * 5000);
  EXPECT_EQ(reg.histogram("test.obs", {0.5, 1.5}).count(), 4 * 5000);
}

// ------------------------------------------------------------------ bridge

TEST(Bridge, MirrorsFaultStatsIntoTheRegistry) {
  fault::configure("test.obs.point=once");
  EXPECT_TRUE(fault::should_fire("test.obs.point"));   // hit + fire
  EXPECT_FALSE(fault::should_fire("test.obs.point"));  // hit only
  obs::Registry reg;
  obs::bridge_fault_counters(reg);
  EXPECT_EQ(reg.gauge("fault.armed").value(), 1.0);
  EXPECT_EQ(reg.counter("fault.hits", "point=\"test.obs.point\"").value(), 2);
  EXPECT_EQ(reg.counter("fault.fires", "point=\"test.obs.point\"").value(), 1);

  // The bridge is an overwrite from the authoritative snapshot: disarming
  // zeroes the armed gauge without inventing counter history.
  fault::disarm();
  obs::bridge_fault_counters(reg);
  EXPECT_EQ(reg.gauge("fault.armed").value(), 0.0);
}

}  // namespace
