// Scrape-time bridges: mirror authoritative counters owned by other
// subsystems into an obs::Registry so one to_prometheus() pass covers
// them.  Bridges use Counter::set — they overwrite with the owner's
// snapshot rather than double-counting — and are called immediately before
// export (the daemon's metrics op, into a registry of that reply's own;
// obs_test).
#pragma once

namespace emwd::obs {

class Registry;

/// Mirror fault-injection state into `reg`:
///   fault.armed                 gauge, 1 when any point is armed
///   fault.hits{point="<name>"}  counter per point seen since configure()
///   fault.fires{point="<name>"} counter per point
void bridge_fault_counters(Registry& reg);

}  // namespace emwd::obs
