#include "exec/engine_registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/machine_detect.hpp"

namespace emwd::exec {

int BuildContext::resolved_threads() const {
  if (threads > 0) return threads;
  return std::max(1, util::detect_host().logical_cpus);
}

void EngineRegistry::register_builder(const std::string& kind, Builder builder) {
  if (kind.empty()) throw std::invalid_argument("EngineRegistry: empty kind");
  if (!builder) throw std::invalid_argument("EngineRegistry: null builder for " + kind);
  std::lock_guard<std::mutex> lock(mu_);
  builders_[kind] = std::move(builder);
}

bool EngineRegistry::has(const std::string& kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return builders_.count(kind) != 0;
}

std::vector<std::string> EngineRegistry::kinds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(builders_.size());
  for (const auto& [kind, builder] : builders_) out.push_back(kind);
  return out;
}

std::unique_ptr<Engine> EngineRegistry::build(const EngineSpec& spec,
                                              const BuildContext& ctx) const {
  Builder builder;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = builders_.find(spec.kind);
    if (it == builders_.end()) {
      std::ostringstream os;
      os << "EngineRegistry: unknown engine kind '" << spec.kind << "'; registered:";
      for (const auto& [kind, b] : builders_) os << ' ' << kind;
      throw std::invalid_argument(os.str());
    }
    builder = it->second;
  }
  BuildContext sub = ctx;
  sub.registry = this;
  return builder(spec, sub);
}

std::unique_ptr<Engine> EngineRegistry::build(const std::string& spec_text,
                                              const BuildContext& ctx) const {
  return build(parse_engine_spec(spec_text), ctx);
}

namespace detail {

void check_spec_keys(const EngineSpec& spec, const char* const* allowed,
                     bool (*extra)(const std::string&)) {
  for (const EngineSpec::Arg& a : spec.args) {
    bool ok = false;
    for (const char* const* k = allowed; *k != nullptr; ++k) {
      if (a.key == *k) {
        ok = true;
        break;
      }
    }
    if (!ok && extra != nullptr) ok = extra(a.key);
    if (!ok) {
      throw std::invalid_argument("engine spec: unknown argument '" + a.key +
                                  "' for engine '" + spec.kind + "'");
    }
  }
}

long spec_count(const EngineSpec& spec, const std::string& key, long fallback) {
  const long value = spec.get_int(key, fallback);
  if (spec.has(key) && value < 1) {
    throw std::invalid_argument("engine spec: '" + key + "' must be >= 1 in " +
                                to_string(spec));
  }
  return value;
}

int spec_threads(const EngineSpec& spec, const BuildContext& ctx) {
  return static_cast<int>(
      spec_count(spec, "threads", static_cast<long>(ctx.resolved_threads())));
}

}  // namespace detail

namespace {

void register_builtin_builders(EngineRegistry& reg) {
  reg.register_builder("naive", [](const EngineSpec& spec, const BuildContext& ctx) {
    static const char* const keys[] = {"threads", nullptr};
    detail::check_spec_keys(spec, keys);
    return make_naive_engine(detail::spec_threads(spec, ctx));
  });

  reg.register_builder("spatial", [](const EngineSpec& spec, const BuildContext& ctx) {
    static const char* const keys[] = {"threads", "by", nullptr};
    detail::check_spec_keys(spec, keys);
    return make_spatial_engine(detail::spec_threads(spec, ctx),
                               static_cast<int>(spec.get_int("by", 0)));
  });

  reg.register_builder("mwd", [](const EngineSpec& spec, const BuildContext& ctx) {
    return make_mwd_engine(mwd_params_from_spec(spec, detail::spec_threads(spec, ctx)));
  });

  reg.register_builder("wavefront", [](const EngineSpec& spec, const BuildContext& ctx) {
    static const char* const keys[] = {"bz", "tx", "tz", "tc", "msb", nullptr};
    detail::check_spec_keys(spec, keys);
    WavefrontParams p;
    p.bz = static_cast<int>(spec.get_int("bz", p.bz));
    p.tx = static_cast<int>(spec.get_int("tx", p.tx));
    p.tz = static_cast<int>(spec.get_int("tz", p.tz));
    p.tc = static_cast<int>(spec.get_int("tc", p.tc));
    return make_wavefront_engine(p, ctx.grid,
                                 static_cast<int>(spec.get_int("msb", 8)));
  });
}

}  // namespace

EngineRegistry& EngineRegistry::global() {
  static EngineRegistry* reg = [] {
    auto* r = new EngineRegistry();
    register_builtin_builders(*r);
    detail::register_extended_builders(*r);
    return r;
  }();
  return *reg;
}

}  // namespace emwd::exec
