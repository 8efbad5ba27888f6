// EngineSpec: the composable engine-construction value type.
//
// The paper's whole method is comparing interchangeable code variants under
// one harness; EngineSpec makes "sharded over X with inner Y via transport
// Z" a first-class value with a canonical string grammar:
//
//   spec    := ident [ '(' arg (',' arg)* ')' ]
//   arg     := ident                 (a flag, e.g. `static`)
//            | ident '=' scalar     (e.g. `dw=8`, `transport=local`)
//            | ident '=' spec       (a nested spec, e.g. `inner=mwd(dw=8)`)
//   ident   := [A-Za-z_][A-Za-z0-9_]*
//   scalar  := [A-Za-z0-9_.+-]+
//
// Whitespace between tokens is ignored on parse and never emitted by
// to_string().  A value is parsed as a nested spec exactly when an ident is
// followed by '(' — to keep the round trip exact, to_string() renders an
// argument-less nested spec as `kind()` (with parens), while a bare word
// like `transport=local` stays a scalar.  parse_engine_spec(to_string(s))
// reproduces s bit-for-bit for any well-formed tree (see tests/fuzz_test).
//
// Examples (see src/exec/README.md for the registry contract):
//
//   naive(threads=4)
//   mwd(dw=8,bz=2,tc=3)
//   sharded(shards=4,interval=2,inner=mwd(dw=8),transport=local)
//   auto
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/engine.hpp"

namespace emwd::exec {

struct EngineSpec {
  /// One named argument: a bare flag, `key=scalar`, or `key=<nested spec>`.
  struct Arg {
    std::string key;
    std::string value;                 // scalar; empty when flag or child
    std::shared_ptr<EngineSpec> child; // nested spec; null otherwise

    bool is_flag() const { return value.empty() && !child; }
    friend bool operator==(const Arg& a, const Arg& b);
  };

  std::string kind;       // engine name, e.g. "mwd", "sharded", "auto"
  std::vector<Arg> args;  // ordered; order is part of the value

  // ------------------------------------------------------------- lookups
  const Arg* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }
  /// True when `key` is present as a bare flag (no value).
  bool flag(const std::string& key) const;
  /// Scalar value of `key`, or nullopt when absent.  Throws
  /// std::invalid_argument when the arg is a flag or a nested spec.
  std::optional<std::string> scalar(const std::string& key) const;
  /// Integer value of `key`; `fallback` when absent.  Throws
  /// std::invalid_argument on a non-integer value or one outside int range
  /// (every spec knob is int-sized — overflow must not silently truncate).
  long get_int(const std::string& key, long fallback) const;
  /// Boolean value of `key` (0/1/true/false; a bare flag reads true).
  bool get_bool(const std::string& key, bool fallback) const;
  /// Nested spec under `key`, or nullopt when absent.  A bare-word scalar
  /// lifts to an argument-less spec of that kind (`inner=naive` ==
  /// `inner=naive()`); throws std::invalid_argument for a flag or a scalar
  /// that is not a valid identifier.
  std::optional<EngineSpec> child(const std::string& key) const;

  // ------------------------------------------------------------ building
  EngineSpec& add_flag(std::string key);
  EngineSpec& add(std::string key, std::string value);
  EngineSpec& add(std::string key, long value);
  EngineSpec& add(std::string key, EngineSpec child);

  friend bool operator==(const EngineSpec& a, const EngineSpec& b);
};

/// Canonical string form (see grammar above); parse_engine_spec inverts it.
std::string to_string(const EngineSpec& spec);

/// Parse the canonical grammar.  Throws std::invalid_argument (with the
/// offending position) on malformed input; never crashes.
EngineSpec parse_engine_spec(const std::string& text);

/// The spec pinning every field of `p`:
/// `mwd(dw=..,bz=..,tx=..,tz=..,tc=..,groups=..[,static])`.
EngineSpec to_spec(const MwdParams& p);

/// Inverse of to_spec, with registry semantics for omitted keys: absent
/// numeric fields keep MwdParams defaults, except `groups` which defaults
/// to the full thread budget (`default_threads / (tx*tz*tc)`, floored at 1)
/// — the paper's 1WD-style default.  Throws std::invalid_argument on
/// unknown keys or a kind other than "mwd".
MwdParams mwd_params_from_spec(const EngineSpec& spec, int default_threads);

}  // namespace emwd::exec
