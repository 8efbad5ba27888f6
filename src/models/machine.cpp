#include "models/machine.hpp"

#include "models/calibrate.hpp"
#include "util/machine_detect.hpp"

namespace emwd::models {

Machine haswell18() {
  Machine m;
  m.name = "haswell18";
  m.cores = 18;
  m.bandwidth_bytes_per_s = 50e9;   // paper Sec. IV-A "applicable" bandwidth
  m.llc_bytes = 45ull << 20;        // 45 MiB shared L3
  m.ghz = 2.3;
  // Calibrated so the paper's anchor points hold:
  //   spatial saturates at ~6 cores * pcore = Pmem = 41 MLUP/s  -> ~7 MLUP/s
  //   MWD at 18 cores with ~75 % efficiency reaches ~130 MLUP/s -> ~9.6
  // The spatial kernel's in-cache rate is the relevant single-thread number;
  // we use the measured-on-paper 1-thread performance of ~8 MLUP/s.
  m.pcore_mlups = 9.6;
  m.sync_drag = 0.02;
  return m;
}

Machine host_machine() {
  // A function-local static: the first caller probes, concurrent first
  // callers wait for it, and every later call copies the cached result.
  static const Machine cached = calibrate_host(util::detect_host());
  return cached;
}

}  // namespace emwd::models
