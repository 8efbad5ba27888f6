// Machine descriptions for the performance model.
//
// `haswell18` reproduces the paper's testbed (18-core Xeon E5-2699 v3,
// 2.3 GHz, 45 MiB shared L3, ~50 GB/s applicable memory bandwidth, Turbo
// and CoD off) and scores with the paper's two constants, a per-core
// update rate and a synchronization drag.  `host_machine()` describes the
// machine we are running on: detected core count and caches plus the terms
// its calibration probe measures (models/calibrate.hpp), which is what the
// auto-tuner prices candidates with on this host.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace emwd::models {

/// Per-host terms measured by calibrate_host().  Rates are per thread while
/// `threads` probe threads run at once, so they include what the threads
/// share (L3, memory, the SMT siblings of a virtual machine).
struct Calibration {
  /// Per-core L2 (HostInfo::l2_bytes): a thread whose share of its group's
  /// tile fits it runs at l2_mlups, else at l3_mlups.
  std::uint64_t l2_bytes = 0;
  /// Probe team size; the split drags below were measured at this size.
  int threads = 1;
  /// Update rate per thread (full 12-component LUPs) on a slab of `row_cells`
  /// x-cells per row that fits the L2, and on one that spills into the L3.
  double l2_mlups = 0.0;
  double l3_mlups = 0.0;
  int row_cells = 128;
  /// Fixed cost per row of a kernels::update_comp_rows run: what a short
  /// row pays on top of its cells (measured against 16-cell rows).
  double row_overhead_ns = 0.0;
  /// Drag of one thread group splitting a tile along x, z or the field
  /// components, against the same threads on private slabs: a T-way split
  /// keeps 1 / (1 + drag * (T - 1)) of their throughput (the paper's
  /// parallel_efficiency form, one drag per split kind).
  double drag_tx = 0.0;
  double drag_tz = 0.0;
  double drag_tc = 0.0;
  /// Wall time the probe took, triad included.
  double seconds = 0.0;
};

struct Machine {
  std::string name = "generic";
  int cores = 1;
  /// Memory bandwidth: the paper's applicable bandwidth, or this host's
  /// STREAM triad.
  double bandwidth_bytes_per_s = 20e9;
  std::uint64_t llc_bytes = 8ull << 20;
  double ghz = 2.0;
  /// Single-core update rate (MLUP/s) when fully decoupled from DRAM, i.e.
  /// running from cache — the paper model's constant, derived from the
  /// paper's data.
  double pcore_mlups = 8.0;
  /// Parallel efficiency drag per extra thread for tiled engines (barriers,
  /// queue contention); the paper observes ~75 % efficiency at 18 threads.
  double sync_drag = 0.02;
  /// Measured terms.  When present the tuner scores with them and the
  /// engines' compact layout instead of pcore_mlups, sync_drag and the
  /// paper's 40 arrays (tune::score_candidate).
  std::optional<Calibration> calibration;
};

/// The paper's 18-core Haswell EP testbed (no calibration, no probe).
Machine haswell18();

/// This host: detected core count and caches, calibrated by one probe run
/// the first time any thread asks (about 0.2 s) and cached for the process.
Machine host_machine();

}  // namespace emwd::models
