#include "exec/engine_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace emwd::exec {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool is_scalar_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' ||
         c == '+' || c == '-';
}

bool is_ident(const std::string& s) {
  if (s.empty() || !is_ident_start(s.front())) return false;
  for (char c : s) {
    if (!is_ident_char(c)) return false;
  }
  return true;
}

/// Recursive-descent parser over the grammar in engine_spec.hpp.  Every
/// failure throws std::invalid_argument with the offending position, so
/// malformed CLI input produces a usable message instead of a crash.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  EngineSpec parse_top() {
    EngineSpec spec = parse_spec();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after spec");
    return spec;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw std::invalid_argument("engine spec: " + msg + " at position " +
                                std::to_string(pos_) + " in \"" + s_ + "\"");
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  std::string parse_ident() {
    if (!is_ident_start(peek())) fail("expected an identifier");
    const std::size_t start = pos_;
    while (pos_ < s_.size() && is_ident_char(s_[pos_])) ++pos_;
    return s_.substr(start, pos_ - start);
  }

  std::string parse_scalar() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && is_scalar_char(s_[pos_])) ++pos_;
    if (pos_ == start) fail("expected a value");
    return s_.substr(start, pos_ - start);
  }

  EngineSpec parse_spec() {
    skip_ws();
    EngineSpec spec;
    spec.kind = parse_ident();
    skip_ws();
    if (peek() != '(') return spec;
    ++pos_;  // '('
    skip_ws();
    if (peek() == ')') {  // explicit argument-less form, `kind()`
      ++pos_;
      return spec;
    }
    while (true) {
      spec.args.push_back(parse_arg());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ')') {
        ++pos_;
        return spec;
      }
      fail("expected ',' or ')'");
    }
  }

  EngineSpec::Arg parse_arg() {
    skip_ws();
    EngineSpec::Arg arg;
    arg.key = parse_ident();
    skip_ws();
    if (peek() != '=') return arg;  // bare flag
    ++pos_;                         // '='
    skip_ws();
    // A value is a nested spec exactly when an ident is followed by '('.
    const std::size_t value_start = pos_;
    const std::string token = parse_scalar();
    skip_ws();
    if (peek() == '(') {
      if (!is_ident(token)) fail("expected an engine kind before '('");
      pos_ = value_start;  // rewind; parse_spec re-reads the kind
      arg.child = std::make_shared<EngineSpec>(parse_spec());
    } else {
      arg.value = token;
    }
    return arg;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

void write_spec(std::ostringstream& os, const EngineSpec& spec) {
  os << spec.kind;
  if (spec.args.empty()) return;
  os << '(';
  for (std::size_t i = 0; i < spec.args.size(); ++i) {
    if (i) os << ',';
    const EngineSpec::Arg& a = spec.args[i];
    os << a.key;
    if (a.child) {
      os << '=';
      write_spec(os, *a.child);
      // An argument-less child must keep its parens, or it would re-parse
      // as a scalar and break the round trip.
      if (a.child->args.empty()) os << "()";
    } else if (!a.value.empty()) {
      os << '=' << a.value;
    }
  }
  os << ')';
}

}  // namespace

bool operator==(const EngineSpec::Arg& a, const EngineSpec::Arg& b) {
  if (a.key != b.key || a.value != b.value) return false;
  if (static_cast<bool>(a.child) != static_cast<bool>(b.child)) return false;
  return !a.child || *a.child == *b.child;
}

bool operator==(const EngineSpec& a, const EngineSpec& b) {
  return a.kind == b.kind && a.args == b.args;
}

const EngineSpec::Arg* EngineSpec::find(const std::string& key) const {
  for (const Arg& a : args) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

bool EngineSpec::flag(const std::string& key) const {
  const Arg* a = find(key);
  return a != nullptr && a->is_flag();
}

std::optional<std::string> EngineSpec::scalar(const std::string& key) const {
  const Arg* a = find(key);
  if (!a) return std::nullopt;
  if (a->child || a->value.empty()) {
    throw std::invalid_argument("engine spec: argument '" + key +
                                "' of '" + kind + "' must be a scalar value");
  }
  return a->value;
}

long EngineSpec::get_int(const std::string& key, long fallback) const {
  const std::optional<std::string> v = scalar(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long out = std::strtol(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw std::invalid_argument("engine spec: argument '" + key + "' of '" + kind +
                                "' is not an integer: " + *v);
  }
  // Every consumer is an int-sized knob; an absurd magnitude must throw,
  // not saturate in strtol and then silently truncate at the int cast.
  if (errno == ERANGE || out > std::numeric_limits<int>::max() ||
      out < std::numeric_limits<int>::min()) {
    throw std::invalid_argument("engine spec: argument '" + key + "' of '" + kind +
                                "' is out of range: " + *v);
  }
  return out;
}

bool EngineSpec::get_bool(const std::string& key, bool fallback) const {
  const Arg* a = find(key);
  if (!a) return fallback;
  if (a->is_flag()) return true;
  const std::optional<std::string> v = scalar(key);
  if (*v == "1" || *v == "true") return true;
  if (*v == "0" || *v == "false") return false;
  throw std::invalid_argument("engine spec: argument '" + key + "' of '" + kind +
                              "' is not a boolean: " + *v);
}

std::optional<EngineSpec> EngineSpec::child(const std::string& key) const {
  const Arg* a = find(key);
  if (!a) return std::nullopt;
  if (a->child) return *a->child;
  if (a->is_flag() || !is_ident(a->value)) {
    throw std::invalid_argument("engine spec: argument '" + key + "' of '" + kind +
                                "' must name an engine");
  }
  EngineSpec lifted;
  lifted.kind = a->value;
  return lifted;
}

EngineSpec& EngineSpec::add_flag(std::string key) {
  args.push_back({std::move(key), "", nullptr});
  return *this;
}

EngineSpec& EngineSpec::add(std::string key, std::string value) {
  args.push_back({std::move(key), std::move(value), nullptr});
  return *this;
}

EngineSpec& EngineSpec::add(std::string key, long value) {
  return add(std::move(key), std::to_string(value));
}

EngineSpec& EngineSpec::add(std::string key, EngineSpec child) {
  args.push_back({std::move(key), "", std::make_shared<EngineSpec>(std::move(child))});
  return *this;
}

std::string to_string(const EngineSpec& spec) {
  std::ostringstream os;
  write_spec(os, spec);
  return os.str();
}

EngineSpec parse_engine_spec(const std::string& text) {
  return Parser(text).parse_top();
}

EngineSpec to_spec(const MwdParams& p) {
  EngineSpec s;
  s.kind = "mwd";
  s.add("dw", static_cast<long>(p.dw))
      .add("bz", static_cast<long>(p.bz))
      .add("tx", static_cast<long>(p.tx))
      .add("tz", static_cast<long>(p.tz))
      .add("tc", static_cast<long>(p.tc))
      .add("groups", static_cast<long>(p.num_tgs));
  if (p.schedule == TileSchedule::StaticWave) s.add_flag("static");
  return s;
}

MwdParams mwd_params_from_spec(const EngineSpec& spec, int default_threads) {
  if (spec.kind != "mwd") {
    throw std::invalid_argument("engine spec: expected a mwd(...) spec, got '" +
                                spec.kind + "'");
  }
  for (const EngineSpec::Arg& a : spec.args) {
    if (a.key != "dw" && a.key != "bz" && a.key != "tx" && a.key != "tz" &&
        a.key != "tc" && a.key != "groups" && a.key != "static" &&
        a.key != "threads") {
      throw std::invalid_argument("engine spec: unknown mwd argument '" + a.key + "'");
    }
  }
  MwdParams p;
  p.dw = static_cast<int>(spec.get_int("dw", p.dw));
  p.bz = static_cast<int>(spec.get_int("bz", p.bz));
  p.tx = static_cast<int>(spec.get_int("tx", p.tx));
  p.tz = static_cast<int>(spec.get_int("tz", p.tz));
  p.tc = static_cast<int>(spec.get_int("tc", p.tc));
  const int threads =
      static_cast<int>(spec.get_int("threads", std::max(1, default_threads)));
  // Positivity up front: the engine validates too, but the `groups` fallback
  // below divides by tg_size(), and a spec must throw — never trap or
  // silently run one group — on nonsense like tc=0 or threads=0.
  if (p.dw < 1 || p.bz < 1 || p.tx < 1 || p.tz < 1 || p.tc < 1 || threads < 1) {
    throw std::invalid_argument("engine spec: mwd parameters must be >= 1 in " +
                                to_string(spec));
  }
  if (spec.flag("static")) p.schedule = TileSchedule::StaticWave;
  // `groups` omitted: spend the whole thread budget, one group per tg_size
  // threads — the paper's 1WD-style default (a bare `mwd` with T threads is
  // T concurrent single-thread groups).
  p.num_tgs = static_cast<int>(
      spec.get_int("groups", std::max(1L, static_cast<long>(threads / p.tg_size()))));
  return p;
}

}  // namespace emwd::exec
