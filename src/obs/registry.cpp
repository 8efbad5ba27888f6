#include "obs/registry.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace emwd::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must be strictly ascending");
    }
  }
}

void Histogram::observe(double x) noexcept {
  std::size_t b = 0;
  while (b < bounds_.size() && x > bounds_[b]) ++b;
  buckets_[b].v.fetch_add(1, std::memory_order_relaxed);
  count_.v.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

std::vector<std::int64_t> Histogram::bucket_counts() const {
  std::vector<std::int64_t> out;
  out.reserve(buckets_.size());
  for (const PaddedAtomicI64& b : buckets_) {
    out.push_back(b.v.load(std::memory_order_relaxed));
  }
  return out;
}

std::int64_t Histogram::count() const noexcept {
  return count_.v.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

namespace {

enum class Kind { Counter, Gauge, Histogram };

struct Metric {
  Kind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

/// Exporter name mangling: dotted in-process names become Prometheus
/// identifiers ("sched.jobs" -> "emwd_sched_jobs").
std::string prometheus_name(const std::string& name) {
  std::string out = "emwd_";
  for (const char c : name) out += (c == '.' || c == '-') ? '_' : c;
  return out;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_int(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  /// Keyed (name, labels); std::map so the exporter emits in sorted
  /// order and a name's label series stay contiguous for # TYPE lines.
  std::map<std::pair<std::string, std::string>, Metric> metrics;
};

// Built with the registry, not on first use: the process-wide registry's
// first users may be concurrent session threads.
Registry::Registry() : impl_(std::make_unique<Impl>()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: references never dangle
  return *r;
}

Counter& Registry::counter(const std::string& name, const std::string& labels) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  Metric& m = im.metrics[{name, labels}];
  if (m.counter == nullptr) {
    if (m.gauge != nullptr || m.histogram != nullptr) {
      throw std::invalid_argument("Registry: " + name + " registered as another kind");
    }
    m.kind = Kind::Counter;
    m.counter = std::make_unique<Counter>();
  }
  return *m.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& labels) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  Metric& m = im.metrics[{name, labels}];
  if (m.gauge == nullptr) {
    if (m.counter != nullptr || m.histogram != nullptr) {
      throw std::invalid_argument("Registry: " + name + " registered as another kind");
    }
    m.kind = Kind::Gauge;
    m.gauge = std::make_unique<Gauge>();
  }
  return *m.gauge;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds,
                               const std::string& labels) {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.metrics.find({name, labels});
  if (it == im.metrics.end()) {
    // Construct before touching the map: the ascending-bounds check may
    // throw, and a half-registered entry would crash the exporter.
    Metric m;
    m.kind = Kind::Histogram;
    m.histogram = std::make_unique<Histogram>(std::move(bounds));
    return *im.metrics.emplace(std::make_pair(name, labels), std::move(m))
                .first->second.histogram;
  }
  Metric& m = it->second;
  if (m.histogram == nullptr) {
    throw std::invalid_argument("Registry: " + name + " registered as another kind");
  }
  if (m.histogram->bounds() != bounds) {
    throw std::invalid_argument("Registry: " + name + " re-registered with different buckets");
  }
  return *m.histogram;
}

std::string Registry::to_prometheus() const {
  const Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  std::string out;
  std::string last_name;
  for (const auto& [key, m] : im.metrics) {
    const std::string pname = prometheus_name(key.first);
    const std::string& labels = key.second;
    if (key.first != last_name) {
      out += "# TYPE " + pname + ' ';
      out += m.kind == Kind::Counter    ? "counter"
             : m.kind == Kind::Gauge    ? "gauge"
                                        : "histogram";
      out += '\n';
      last_name = key.first;
    }
    switch (m.kind) {
      case Kind::Counter:
        out += pname;
        if (!labels.empty()) out += '{' + labels + '}';
        out += ' ';
        append_int(out, m.counter->value());
        out += '\n';
        break;
      case Kind::Gauge:
        out += pname;
        if (!labels.empty()) out += '{' + labels + '}';
        out += ' ';
        append_double(out, m.gauge->value());
        out += '\n';
        break;
      case Kind::Histogram: {
        const std::vector<std::int64_t> counts = m.histogram->bucket_counts();
        const std::vector<double>& bounds = m.histogram->bounds();
        std::int64_t cumulative = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          cumulative += counts[b];
          out += pname + "_bucket{";
          if (!labels.empty()) out += labels + ',';
          out += "le=\"";
          if (b < bounds.size()) {
            append_double(out, bounds[b]);
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          append_int(out, cumulative);
          out += '\n';
        }
        out += pname + "_sum";
        if (!labels.empty()) out += '{' + labels + '}';
        out += ' ';
        append_double(out, m.histogram->sum());
        out += '\n';
        out += pname + "_count";
        if (!labels.empty()) out += '{' + labels + '}';
        out += ' ';
        append_int(out, m.histogram->count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

}  // namespace emwd::obs
