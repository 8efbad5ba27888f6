// Cache hierarchy + synthetic address space for traffic replay.
//
// Replay assigns every domain-sized array a disjoint synthetic address
// region (array id in the high bits), so simulated placement is
// deterministic and independent of allocator behaviour.  The hierarchy is a
// stack of Cache levels; a miss at level i is looked up at level i+1, dirty
// victims are written into the next level, and traffic past the last level
// is DRAM traffic.  For code-balance measurements a single shared
// last-level cache is the configuration that matters (private L1/L2 are too
// small to affect DRAM traffic of the paper's 640 B/cell streams, which the
// replay models), and is the default.
#pragma once

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"

namespace emwd::cachesim {

class Hierarchy {
 public:
  /// Levels ordered nearest-first; the last one is the LLC.
  explicit Hierarchy(std::vector<CacheConfig> levels);

  /// Single-LLC convenience.
  static Hierarchy llc_only(std::uint64_t size_bytes, int associativity = 16);

  void access(std::uint64_t addr, bool write);
  void access_range(std::uint64_t addr, std::uint64_t bytes, bool write);

  /// Flush all levels (dirty lines cascade to DRAM).
  void flush();

  std::uint64_t dram_read_bytes() const { return dram_read_bytes_; }
  std::uint64_t dram_write_bytes() const { return dram_write_bytes_; }
  std::uint64_t dram_total_bytes() const { return dram_read_bytes_ + dram_write_bytes_; }

  const Cache& level(std::size_t i) const { return levels_.at(i); }

  void reset_stats();

 private:
  std::vector<Cache> levels_;
  std::uint64_t dram_read_bytes_ = 0;
  std::uint64_t dram_write_bytes_ = 0;
};

/// Synthetic address of complex cell `index` of array `array_id`:
/// 16 bytes per complex cell, arrays in disjoint 64 GiB windows.  Each
/// array's base is additionally staggered by a per-array line offset so
/// that equal in-array offsets do not collide on the same cache sets —
/// mirroring the arbitrary allocator placement of real arrays (without
/// this, the paper's 40 same-shaped arrays alias into 16-way sets and
/// conflict misses swamp every measurement).
inline std::uint64_t array_addr(int array_id, std::uint64_t complex_index) {
  const std::uint64_t id = static_cast<std::uint64_t>(array_id);
  return (id << 36) + id * (64u * 1237u) + complex_index * 16u;
}

}  // namespace emwd::cachesim
