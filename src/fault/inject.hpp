// fault — a seeded, deterministic fault-injection registry.
//
// Production code declares named injection points at the places that can
// actually fail (transport staging, snapshot IO, engine step boundaries,
// socket syscalls, scheduler lease acquisition); a test, a CI chaos smoke
// or an operator arms a subset of them with deterministic triggers and the
// stack must survive.  Disarmed, a point is one relaxed atomic load and a
// predicted-not-taken branch — bench_micro's BM_FaultCheckDisabled gates
// that this stays effectively free, so the points can live on hot paths
// permanently instead of being compiled out.
//
// Configuration is a spec string, programmatic (fault::configure) or via
// environment (EMWD_FAULTS / EMWD_FAULT_SEED, read once at first use):
//
//   point=trigger[*max][;point=trigger[*max]]...
//
//   trigger := p:F      fire each hit with probability F (seeded xoshiro,
//                       deterministic for a fixed seed + hit sequence)
//            | every:N  fire every Nth hit (N >= 1; every:1 fires always —
//                       bound it with *max or the caller loops forever on
//                       retry-style points)
//            | once[:N] fire exactly once, at the Nth hit (default 1)
//   *max               cap total fires of the point at `max`
//
//   e.g. EMWD_FAULTS='transport.stage=every:5*2;snapshot.writer=once:2'
//        EMWD_FAULT_SEED=42
//
// Firing semantics are per point name and process-global; counters (hits,
// fires) are queryable via fault::stats() and printed by the chaos smoke
// drivers.  Points that throw use fault::InjectedFault, which the failure
// policies classify as a TRANSIENT error (retryable); points that simulate
// a syscall condition (socket.eintr.*) only consult should_fire() and
// synthesize errno themselves.
//
// Registered point names (kept in sync with src/fault/README.md):
//   transport.stage    Transport::stage, every registered transport (throws)
//   transport.unstage  Transport::unstage, every registered transport (throws)
//   transport.shm.map  dist::ShmTransport ring creation (shm_open) (throws)
//   transport.shm.torn dist::ShmTransport::unstage before the header
//                      validation — a torn/truncated ring slot (throws)
//   snapshot.write     io::write_snapshot serialization entry (throws)
//   snapshot.read      io::read_snapshot after the header parse (throws)
//   snapshot.writer    io::SnapshotWriter background thread, per file (throws)
//   engine.step        thiim::Simulation::run / run_until_converged: once at
//                      entry, then at every step-hook boundary and every
//                      convergence check that continues the run (throws)
//   sched.acquire      batch::Scheduler executor, before engine/fields
//                      lease acquisition (throws)
//   socket.eintr.send  util/socket write loop: simulate EINTR, no throw
//   socket.eintr.recv  util/socket read loop: simulate EINTR, no throw
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace emwd::fault {

/// The exception armed points throw.  Deliberately a std::runtime_error so
/// existing catch sites treat it like any other transient runtime failure;
/// the point name travels in both `point()` and the what() text.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at " + point), point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

namespace detail {
/// Process-global arm flag.  False (the overwhelmingly common state) makes
/// every injection point a single relaxed load; nothing else is touched.
extern std::atomic<bool> g_armed;
}  // namespace detail

/// True when any point is armed.  The fast path of every injection point.
inline bool enabled() {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Full trigger evaluation for `point` (counts the hit, rolls the trigger,
/// counts the fire).  Call only behind enabled(); unarmed points count
/// their hits but never fire.  Thread-safe.
bool should_fire(const char* point);

/// Throw InjectedFault when `point` fires.  The standard armed-point form.
inline void maybe_fail(const char* point) {
  if (enabled() && should_fire(point)) throw InjectedFault(point);
}

/// Arm the registry from a spec string (grammar above).  Replaces any
/// previous configuration and resets all counters; an empty spec disarms.
/// Throws std::invalid_argument naming the offending clause on a malformed
/// spec, leaving the previous configuration in place.
void configure(const std::string& spec, std::uint64_t seed = 0);

/// Disarm every point and clear configuration + counters.
void disarm();

/// Read EMWD_FAULTS / EMWD_FAULT_SEED and configure() from them.  Called
/// automatically once per process at the first enabled()/should_fire()
/// consumer via a static initializer in inject.cpp; exposed for tests.  A
/// malformed env spec aborts with a message on stderr — a chaos run with a
/// typo'd spec must not silently run fault-free.
void configure_from_env();

struct PointStats {
  std::uint64_t hits = 0;   // times the point was evaluated while armed
  std::uint64_t fires = 0;  // times it fired
};

/// Per-point counters for every point seen (configured or merely hit)
/// since the last configure()/disarm().
std::map<std::string, PointStats> stats();

/// One line per configured point: "FAULT <point> hits=<h> fires=<f>".
/// Chaos smoke drivers print this at exit so CI can assert fires > 0.
std::string report();

}  // namespace emwd::fault
