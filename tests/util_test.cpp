// Unit tests for the util subsystem.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <optional>

#include "fault/inject.hpp"
#include "util/affinity.hpp"
#include "util/aligned.hpp"
#include "util/socket.hpp"
#include "util/json.hpp"
#include "util/barrier.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/machine_detect.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace emwd::util;

TEST(Aligned, VectorStorageIsCacheLineAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    std::vector<double, AlignedAllocator<double>> v(n, 0.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  }
}

TEST(Aligned, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(round_up(9, 8), 16u);
  EXPECT_EQ(round_up(63, 64), 64u);
}

TEST(SpinBarrier, SingleParticipantNeverBlocks) {
  SpinBarrier b(1);
  for (int i = 0; i < 100; ++i) b.arrive_and_wait();
  SUCCEED();
}

TEST(SpinBarrier, SynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  SpinBarrier b(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        b.arrive_and_wait();
        // After the barrier every thread of round r has incremented.
        if (counter.load() < (r + 1) * kThreads) ok = false;
        b.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(counter.load(), kThreads * kRounds);
}

TEST(SpinBarrier, ReusableManyTimes) {
  SpinBarrier b(2);
  std::atomic<int> sum{0};
  std::thread other([&] {
    for (int i = 0; i < 1000; ++i) {
      b.arrive_and_wait();
      sum.fetch_add(1);
      b.arrive_and_wait();
    }
  });
  for (int i = 0; i < 1000; ++i) {
    b.arrive_and_wait();
    b.arrive_and_wait();
    ASSERT_EQ(sum.load(), i + 1);
  }
  other.join();
}

TEST(Timer, MeasuresElapsedAndResets) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  asm volatile("" : : "g"(&sink) : "memory");
  const double s1 = t.seconds();
  EXPECT_GE(s1, 0.0);
  t.reset();
  EXPECT_LE(t.seconds(), s1 + 1.0);
  // milliseconds() and seconds() are separate clock reads; only the scale
  // is checked (within a generous 10 ms of drift).
  EXPECT_NEAR(t.milliseconds(), t.seconds() * 1e3, 10.0);
}

TEST(Timer, MlupsConversion) {
  EXPECT_DOUBLE_EQ(mlups(1000000, 10, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(mlups(1000000, 10, 0.0), 0.0);
}

TEST(Stats, SummaryStatistics) {
  Stats s;
  for (double x : {4.0, 1.0, 3.0, 2.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
  EXPECT_DOUBLE_EQ(s.median(), 2.5);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
}

TEST(Stats, EmptyThrows) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_numeric({2.5, 3.25});
  EXPECT_EQ(t.rows(), 2u);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("alpha,1"), std::string::npos);
  EXPECT_NE(csv.find("2.5,3.25"), std::string::npos);
  const std::string aligned = t.to_aligned();
  EXPECT_NE(aligned.find("alpha"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("q\"x"), "\"q\"\"x\"");
}

TEST(FmtDouble, SignificantDigits) {
  EXPECT_EQ(fmt_double(1344.0, 6), "1344");
  EXPECT_EQ(fmt_double(0.18452, 3), "0.185");
}

TEST(Cli, ParsesAllForms) {
  Cli cli;
  cli.add_flag("size", "grid size", "64");
  cli.add_flag("verbose", "chatty");
  cli.add_flag("ratio", "a double");
  const char* argv[] = {"prog", "--size=128", "--verbose", "--ratio", "2.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("size", 0), 128);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 2.5);
}

TEST(Cli, DefaultsAndFallbacks) {
  Cli cli;
  cli.add_flag("size", "grid size", "64");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("size", 0), 64);     // declared default
  EXPECT_EQ(cli.get_int("missing", 7), 7);   // caller fallback
  EXPECT_FALSE(cli.has("size"));
}

TEST(Cli, RejectsUnknownFlagsAndPositionals) {
  Cli cli;
  cli.add_flag("x", "");
  const char* bad1[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, bad1));
  EXPECT_NE(cli.error().find("nope"), std::string::npos);
  Cli cli2;
  const char* bad2[] = {"prog", "stray"};
  EXPECT_FALSE(cli2.parse(2, bad2));
}

TEST(Cli, IntListAndHelp) {
  Cli cli;
  cli.add_flag("sizes", "comma separated", "8,16");
  const char* argv[] = {"prog", "--sizes=64,128,192", "--help"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_TRUE(cli.help_requested());
  const auto v = cli.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 192);
  EXPECT_NE(cli.help_text("prog").find("sizes"), std::string::npos);
}

TEST(Xoshiro, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(Xoshiro, UniformRanges) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
    EXPECT_LT(rng.below(10), 10u);
  }
}

TEST(MachineDetect, SaneFallbacks) {
  const HostInfo info = detect_host();
  EXPECT_GE(info.logical_cpus, 1);
  EXPECT_GT(info.l1d_bytes, 0u);
  EXPECT_GT(info.l3_bytes, 0u);
}

// ---------------------------------------------------------------- JSON

TEST(Json, ParsesScalarsObjectsAndArrays) {
  const JsonValue doc = JsonValue::parse(
      R"({"s":"hi","n":-2.5e2,"i":42,"t":true,"f":false,"z":null,
          "a":[1,"two",[3]],"o":{"k":1}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get_string("s", ""), "hi");
  EXPECT_DOUBLE_EQ(doc.get_double("n", 0.0), -250.0);
  EXPECT_EQ(doc.get_int("i", 0), 42);
  EXPECT_TRUE(doc.get_bool("t", false));
  EXPECT_FALSE(doc.get_bool("f", true));
  EXPECT_TRUE(doc.find("z")->is_null());
  const JsonValue::Array& a = doc.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[1].as_string(), "two");
  EXPECT_EQ(a[2].as_array()[0].as_int(), 3);
  EXPECT_EQ(doc.find("o")->get_int("k", 0), 1);
  // Absent keys fall back; present-but-mistyped keys throw by name.
  EXPECT_EQ(doc.get_int("missing", -7), -7);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.get_int("s", 0), std::invalid_argument);
  EXPECT_THROW(doc.get_string("i", ""), std::invalid_argument);
}

TEST(Json, StringEscapesRoundTrip) {
  const JsonValue doc =
      JsonValue::parse("\"a\\\"b\\\\c\\/d\\n\\t\\r\\b\\f\\u0041\\u00e9\"");
  EXPECT_EQ(doc.as_string(), std::string("a\"b\\c/d\n\t\r\b\fA\xc3\xa9"));
  // json_escape is the inverse direction: its output re-parses to the input.
  const std::string nasty = "quote\" slash\\ ctrl\x01\n end";
  EXPECT_EQ(JsonValue::parse('"' + json_escape(nasty) + '"').as_string(), nasty);
}

TEST(Json, ObjectOrderIsPreserved) {
  const JsonValue doc = JsonValue::parse(R"({"z":1,"a":2,"m":3})");
  const JsonValue::Object& o = doc.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, MalformedInputsThrowNeverCrash) {
  const char* const malformed[] = {
      "",        " ",        "{",         "}",          "[",       "]",
      "{]",      "[}",       "nul",       "tru",        "falsey",  "01",
      "1.",      ".5",       "1e",        "+1",         "--1",     "\"",
      "\"\\\"",  "\"\\x\"",  "\"\\u12\"", "{\"a\"}",    "{\"a\":}", "{a:1}",
      "[1,]",    "{\"a\":1,}", "[1 2]",   "{} {}",      "1 1",     "\x80",
      "\"tab\tliteral\"",
  };
  for (const char* text : malformed) {
    EXPECT_THROW(JsonValue::parse(text), std::invalid_argument) << text;
  }
}

TEST(Json, DepthBombThrowsInsteadOfOverflowing) {
  std::string deep;
  for (int i = 0; i < 100000; ++i) deep += '[';
  EXPECT_THROW(JsonValue::parse(deep), std::invalid_argument);
  std::string deep_obj;
  for (int i = 0; i < 100000; ++i) deep_obj += "{\"a\":";
  EXPECT_THROW(JsonValue::parse(deep_obj), std::invalid_argument);
}

TEST(Json, SeventeenDigitDoublesRoundTripBitExactly) {
  Xoshiro256 rng(15015);
  char buf[64];
  for (int trial = 0; trial < 1000; ++trial) {
    const double d = (rng.uniform() - 0.5) * std::pow(10.0, double(rng.below(60)) - 30.0);
    std::snprintf(buf, sizeof buf, "%.17g", d);
    EXPECT_EQ(JsonValue::parse(buf).as_number(), d) << buf;
  }
}

TEST(Json, AsIntRejectsNonIntegralAndHugeNumbers) {
  EXPECT_EQ(JsonValue::parse("-9007199254740992").as_int(), -9007199254740992L);
  EXPECT_THROW(JsonValue::parse("1.5").as_int(), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("1e300").as_int(), std::invalid_argument);
}

// ------------------------------------------------------------- affinity

TEST(Affinity, ScopedAffinityRestoresTheSavedMask) {
  const ThreadAffinity before = get_thread_affinity();
  if (!before.valid || before.cpus.empty()) {
    GTEST_SKIP() << "no sched affinity on this platform";
  }
  {
    ScopedAffinity scope({before.cpus.front()});
    EXPECT_TRUE(scope.pinned());
    EXPECT_EQ(get_thread_affinity().cpus, std::vector<int>{before.cpus.front()});
  }
  EXPECT_EQ(get_thread_affinity().cpus, before.cpus);
}

TEST(Affinity, ScopedAffinityUndoesPinsMadeInsideTheScope) {
  const ThreadAffinity before = get_thread_affinity();
  if (!before.valid || before.cpus.empty()) {
    GTEST_SKIP() << "no sched affinity on this platform";
  }
  {
    ScopedAffinity scope;  // save-only form
    EXPECT_FALSE(scope.pinned());
    pin_current_thread({before.cpus.back()});
  }
  EXPECT_EQ(get_thread_affinity().cpus, before.cpus);
}

TEST(Affinity, ReleaseKeepsTheCurrentMask) {
  const ThreadAffinity before = get_thread_affinity();
  if (!before.valid || before.cpus.empty()) {
    GTEST_SKIP() << "no sched affinity on this platform";
  }
  std::thread([&] {
    {
      ScopedAffinity scope({before.cpus.front()});
      scope.release();
    }
    // The pin survives the scope; this thread dies right after, so the
    // leaked mask is intentional and contained.
    EXPECT_EQ(get_thread_affinity().cpus, std::vector<int>{before.cpus.front()});
  }).join();
  EXPECT_EQ(get_thread_affinity().cpus, before.cpus);
}

TEST(Affinity, EmptyAndBogusCpuListsAreRejected) {
  EXPECT_FALSE(pin_current_thread({}));
  EXPECT_FALSE(pin_current_thread({1 << 20}));
}

TEST(SocketFraming, FramesSurviveInjectedEintrStorms) {
  // The socket.eintr.* points synthesize EINTR inside the send/recv loops;
  // the framing layer must retry through the storm and deliver the payload
  // byte-exact.  The *max cap bounds the storm so the loops terminate.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  emwd::fault::configure(
      "socket.eintr.send=every:2*16;socket.eintr.recv=every:2*16");
  std::string payload(100000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  bool sent = false;
  std::thread sender([&] { sent = send_frame(fds[0], payload); });
  const std::optional<std::string> got = recv_frame(fds[1], 1u << 20);
  sender.join();
  const auto stats = emwd::fault::stats();
  emwd::fault::disarm();
  EXPECT_TRUE(sent);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  // The storm actually happened — both loops retried through real EINTRs.
  EXPECT_GT(stats.at("socket.eintr.send").fires, 0u);
  EXPECT_GT(stats.at("socket.eintr.recv").fires, 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
