// EngineRegistry: builders register by name and construct engines from an
// EngineSpec plus a BuildContext.  This is the single construction path for
// every code variant the paper compares — the thiim facade, the benches and
// the examples all lower their configuration onto a spec and build here.
//
// The stock kinds (naive / spatial / mwd / wavefront) are registered by
// this translation unit; the composed kinds ("sharded", "auto") are
// registered by the tune layer through the register_extended_builders()
// hook so the registry never includes higher layers.  See
// src/exec/README.md for the builder contract.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "exec/engine_spec.hpp"
#include "grid/layout.hpp"
#include "models/machine.hpp"

namespace emwd::exec {

class EngineRegistry;

/// Everything a builder may need beyond its spec.  Specs stay portable
/// (pure values); the context carries the run's environment.
struct BuildContext {
  grid::Extents grid{64, 64, 64};
  /// Thread budget; <= 0 resolves to the detected hardware concurrency.
  /// A spec's own `threads=` argument overrides this.
  int threads = 0;
  /// Machine description for tuning builders ("auto", "sharded(inner=auto)");
  /// unset defers to models::host_machine().
  std::optional<models::Machine> machine;
  /// The registry build() was invoked on — set automatically, so builders
  /// of composite kinds can construct their nested specs recursively.
  const EngineRegistry* registry = nullptr;

  int resolved_threads() const;
};

class EngineRegistry {
 public:
  using Builder =
      std::function<std::unique_ptr<Engine>(const EngineSpec&, const BuildContext&)>;

  /// Register (or replace) the builder for `kind`.  Registration is
  /// thread-safe; the last registration wins, so tests can shadow a kind.
  void register_builder(const std::string& kind, Builder builder);

  bool has(const std::string& kind) const;
  std::vector<std::string> kinds() const;

  /// Construct the engine for `spec`.  Throws std::invalid_argument for an
  /// unregistered kind (listing what is registered) and propagates whatever
  /// the builder throws for malformed arguments.
  std::unique_ptr<Engine> build(const EngineSpec& spec, const BuildContext& ctx) const;
  /// Parse-and-build convenience for CLI strings.
  std::unique_ptr<Engine> build(const std::string& spec_text,
                                const BuildContext& ctx) const;

  /// The process-wide registry, fully loaded: stock kinds plus the extended
  /// ("sharded", "auto") builders.
  static EngineRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Builder> builders_;
};

namespace detail {
/// Registers the composed engine kinds that live above exec (the sharded
/// engine and the auto-tuned kinds).  Defined in src/tune/engine_builders.cpp;
/// EngineRegistry::global() references it so the builders are always linked.
void register_extended_builders(EngineRegistry& registry);

/// Throws std::invalid_argument when `spec` carries a key outside `allowed`
/// (nullptr-terminated) — builders use it so a typo'd argument fails loudly
/// instead of being ignored.  Keys accepted by `extra` (may be null) pass.
void check_spec_keys(const EngineSpec& spec, const char* const* allowed,
                     bool (*extra)(const std::string&) = nullptr);

/// Integer value of the count `key` (threads, shards, ...), or `fallback`
/// when absent.  A present value below 1 throws std::invalid_argument: a
/// count of zero or less never silently runs a default, and never reaches
/// an engine that would divide by it.
long spec_count(const EngineSpec& spec, const std::string& key, long fallback);

/// The thread budget a builder runs with: the spec's own `threads=` (a
/// count, see spec_count), else ctx.resolved_threads().
int spec_threads(const EngineSpec& spec, const BuildContext& ctx);
}  // namespace detail

}  // namespace emwd::exec
