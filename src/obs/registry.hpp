// obs::Registry — named metrics with lock-light updates and a Prometheus
// text exporter.  One process-wide instance holds the metrics counted where
// they happen; the daemon's metrics op mirrors its status into a local one.
//
// Three metric kinds:
//   * Counter   — monotonic int64.  add()/inc() on the hot path are one
//                 relaxed fetch_add; set() exists for scrape-time bridges
//                 that mirror an authoritative snapshot (the daemon's
//                 status counters, fault::stats()) into a registry.
//   * Gauge     — last-written double (relaxed store).
//   * Histogram — fixed upper-bound buckets fixed at registration;
//                 observe() is a linear probe + one relaxed fetch_add
//                 plus sum/count updates.
//
// Identity is (name, labels): `labels` is a pre-rendered Prometheus
// label body like `point="engine.step"` (empty = none).  Registration
// takes a mutex once; the returned reference is stable for the registry's
// lifetime (the process-wide one is never destroyed — the fault-registry
// leak pattern), so hot paths cache it and update lock-free.  Every metric
// value lives on its own cache line: concurrent updaters never false-
// share.
//
// Naming convention (src/obs/README.md): dotted lower-case
// `subsystem.metric` in code ("sched.jobs_submitted"); the exporter emits
// `emwd_` + dots-to-underscores ("emwd_sched_jobs_submitted").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace emwd::obs {

/// One cache line per value: concurrent updaters of different metrics
/// (or different histogram buckets) never contend.
struct alignas(64) PaddedAtomicI64 {
  std::atomic<std::int64_t> v{0};
};

class Counter {
 public:
  void inc() noexcept { add(1); }
  void add(std::int64_t n) noexcept { v_.v.fetch_add(n, std::memory_order_relaxed); }
  /// Scrape-time bridge form: overwrite with an authoritative snapshot.
  void set(std::int64_t n) noexcept { v_.v.store(n, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.v.load(std::memory_order_relaxed); }

 private:
  PaddedAtomicI64 v_;
};

class Gauge {
 public:
  void set(double x) noexcept { v_.store(x, std::memory_order_relaxed); }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> v_{0.0};
};

class Histogram {
 public:
  /// `bounds` are the inclusive bucket upper limits, strictly ascending;
  /// an implicit +inf bucket catches the rest.
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts, one per bound plus the +inf slot.
  std::vector<std::int64_t> bucket_counts() const;
  std::int64_t count() const noexcept;
  double sum() const noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<PaddedAtomicI64> buckets_;  // bounds_.size() + 1
  PaddedAtomicI64 count_;
  alignas(64) std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  /// The process-wide instance: the metrics counted where they happen
  /// (serve.request_seconds, io.*).
  static Registry& global();

  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;
  ~Registry();

  /// Find-or-register.  References stay valid for the registry's
  /// lifetime; re-registration with the same (name, labels) returns the
  /// same object.  A histogram re-registered with different bounds
  /// throws std::invalid_argument; so does a name re-registered as a
  /// different kind.
  Counter& counter(const std::string& name, const std::string& labels = "");
  Gauge& gauge(const std::string& name, const std::string& labels = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& labels = "");

  /// Prometheus text exposition: one # TYPE line per metric name, then
  /// `emwd_<name>{labels} value` samples; histograms expand to
  /// cumulative `_bucket{le=...}` + `_sum` + `_count`.
  std::string to_prometheus() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace emwd::obs
