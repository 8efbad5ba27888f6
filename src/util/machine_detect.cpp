#include "util/machine_detect.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

namespace emwd::util {
namespace {

/// Parse "32K" / "2048K" / "45M" style sysfs cache size strings into bytes.
std::size_t parse_size(const std::string& text) {
  std::istringstream is(text);
  double value = 0.0;
  is >> value;
  char suffix = '\0';
  is >> suffix;
  switch (suffix) {
    case 'K':
    case 'k':
      return static_cast<std::size_t>(value * 1024.0);
    case 'M':
    case 'm':
      return static_cast<std::size_t>(value * 1024.0 * 1024.0);
    case 'G':
    case 'g':
      return static_cast<std::size_t>(value * 1024.0 * 1024.0 * 1024.0);
    default:
      return static_cast<std::size_t>(value);
  }
}

std::string read_line(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  if (f) std::getline(f, line);
  return line;
}

/// Highest numbered physical_package_id over all cpus, or -1 when unreadable.
int max_package_id(int logical_cpus) {
  int max_id = -1;
  for (int cpu = 0; cpu < logical_cpus; ++cpu) {
    const std::string line =
        read_line("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                  "/topology/physical_package_id");
    if (line.empty()) continue;
    try {
      max_id = std::max(max_id, std::stoi(line));
    } catch (const std::exception&) {
    }
  }
  return max_id;
}

}  // namespace

std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::istringstream is(text);
  std::string piece;
  while (std::getline(is, piece, ',')) {
    const auto dash = piece.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(piece));
      } else {
        const int lo = std::stoi(piece.substr(0, dash));
        const int hi = std::stoi(piece.substr(dash + 1));
        for (int c = lo; c <= hi; ++c) cpus.push_back(c);
      }
    } catch (const std::exception&) {
      // Skip malformed pieces; callers fall back to a single node.
    }
  }
  return cpus;
}

namespace {

HostInfo probe_host() {
  HostInfo info;
  info.logical_cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (info.logical_cpus <= 0) info.logical_cpus = 1;

  // Walk cpu0's cache indices; level+type identify L1d/L2/L3.
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir = base + std::to_string(idx) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) continue;
    const std::string type = read_line(dir + "type");
    const std::string size = read_line(dir + "size");
    if (size.empty()) continue;
    const std::size_t bytes = parse_size(size);
    if (level == "1" && type == "Data") info.l1d_bytes = bytes;
    if (level == "2" && (type == "Unified" || type == "Data")) info.l2_bytes = bytes;
    if (level == "3") info.l3_bytes = bytes;
  }

  {
    std::ifstream meminfo("/proc/meminfo");
    std::string key;
    long long kb = 0;
    while (meminfo >> key >> kb) {
      if (key == "MemTotal:") {
        info.total_ram_bytes = static_cast<std::size_t>(kb) * 1024;
        break;
      }
      meminfo.ignore(1024, '\n');
    }
  }

  {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
      const auto pos = line.find("model name");
      if (pos != std::string::npos) {
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size()) {
          info.cpu_model = line.substr(colon + 2);
        }
        break;
      }
    }
  }

  // NUMA topology: nodeN directories with a readable cpulist.  Node numbers
  // may have gaps (offline nodes) and some nodes have no cpus at all (CXL /
  // HBM memory-only nodes) — both are skipped without ending the scan, since
  // shard placement only cares about nodes that can run threads.
  for (int node = 0; node < 256; ++node) {
    const std::string cpulist = read_line("/sys/devices/system/node/node" +
                                          std::to_string(node) + "/cpulist");
    if (cpulist.empty()) continue;
    std::vector<int> cpus = parse_cpulist(cpulist);
    if (!cpus.empty()) info.numa_node_cpus.push_back(std::move(cpus));
  }
  if (info.numa_node_cpus.empty()) {
    // Single-node fallback: all logical cpus on one node.
    std::vector<int> all(static_cast<std::size_t>(info.logical_cpus));
    for (int c = 0; c < info.logical_cpus; ++c) all[static_cast<std::size_t>(c)] = c;
    info.numa_node_cpus.push_back(std::move(all));
  }
  info.num_numa_nodes = static_cast<int>(info.numa_node_cpus.size());

  info.num_sockets = std::max(1, max_package_id(info.logical_cpus) + 1);

  return info;
}

}  // namespace

HostInfo detect_host() {
  // The host does not change within a process: probe sysfs once.
  static const HostInfo cached = probe_host();
  return cached;
}

}  // namespace emwd::util
