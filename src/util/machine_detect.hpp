// Host hardware introspection (Linux sysfs / sysconf).
//
// Used to size default grids and to seed the machine model with real cache
// sizes when running natively rather than in paper-emulation mode.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace emwd::util {

struct HostInfo {
  int logical_cpus = 1;
  std::size_t l1d_bytes = 32 * 1024;
  std::size_t l2_bytes = 256 * 1024;
  std::size_t l3_bytes = 8ull * 1024 * 1024;
  std::size_t total_ram_bytes = 0;
  std::string cpu_model = "unknown";
  /// CPU packages (from topology/physical_package_id; >= 1).
  int num_sockets = 1;
  /// NUMA nodes (from /sys/devices/system/node; >= 1).
  int num_numa_nodes = 1;
  /// Logical cpu ids per NUMA node; always num_numa_nodes non-empty entries
  /// (the single-node fallback holds every cpu).
  std::vector<std::vector<int>> numa_node_cpus;
};

/// Best-effort detection; every field has a sane fallback.  The first call
/// probes sysfs; later calls return a copy of that probe.
HostInfo detect_host();

/// Parse a sysfs cpulist string ("0-3,8,10-11") into cpu ids; malformed
/// pieces are skipped.  Exposed for tests.
std::vector<int> parse_cpulist(const std::string& text);

}  // namespace emwd::util
