// The host calibration probe behind models::host_machine().
//
// In the spirit of the ECM model (Treibig, Hager, Wellein), the probe
// charges time per cache level instead of guessing one per-core rate: a
// team of min(3, cpus) threads updates all 12 components of small slabs
// through kernels::update_comp_rows, one run of a slab's rows per
// (component, z), as the engines do, and measures
//   - the per-thread rate on a slab that fits the L2 and on one that
//     spills into the L3, with long (128-cell) x-rows;
//   - the fixed cost per row of such a run, from 16-cell rows;
//   - the drag of each intra-group split kind (x, z, components): the team
//     shares one slab with a util::SpinBarrier per half-step, against the
//     same team on private slabs;
//   - STREAM triad bandwidth.
// Measurements alternate over a few rounds and each term is a median, so a
// slow spell of the host skews no single term.  Each probe thread is pinned
// to its own cpu of the process's mask, not the caller's (a pinned batch
// executor may ask first), and the team spins up before anything is timed.
// About 0.2 s of wall time and at most about 110 MB of transient memory
// (the triad's three arrays of up to 32 MiB, and the slabs).
#pragma once

#include "models/machine.hpp"
#include "util/machine_detect.hpp"

namespace emwd::models {

/// The machine `info` describes, with its Calibration and its triad
/// bandwidth measured now.  host_machine() calls this the first time any
/// thread asks and caches the result; call it directly only to re-measure.
Machine calibrate_host(const util::HostInfo& info);

}  // namespace emwd::models
