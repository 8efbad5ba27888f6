#include "tune/space.hpp"

#include <algorithm>
#include <sstream>

namespace emwd::tune {

std::vector<int> divisors(int n) {
  std::vector<int> out;
  for (int d = 1; d <= n; ++d) {
    if (n % d == 0) out.push_back(d);
  }
  return out;
}

std::vector<exec::MwdParams> enumerate_candidates(int threads, const grid::Extents& grid,
                                                  const SpaceLimits& limits) {
  std::vector<exec::MwdParams> out;
  const int max_dw = std::min(limits.max_dw, grid.ny);
  const int max_bz = std::min(limits.max_bz, grid.nz);

  for (int tg : divisors(threads)) {
    const int num_tgs = threads / tg;
    // Factor tg into tx * tz * tc with the component split restricted to the
    // counts that divide six update streams evenly (paper Sec. II-B).
    for (int tc : {1, 2, 3, 6}) {
      if (tg % tc != 0) continue;
      const int rest = tg / tc;
      for (int tz : divisors(rest)) {
        const int tx = rest / tz;
        // Short per-thread rows waste the pipelines (paper Sec. VI); but a
        // tx of 1 must always remain legal, however small the grid.
        if (tx > 1 && grid.nx / tx < limits.min_x_per_thread) continue;
        for (int bz = 1; bz <= max_bz; bz *= 2) {
          if (tz > bz) continue;  // more z-threads than window planes is waste
          for (int dw : {1, 2, 4, 6, 8, 12, 16, 20, 24, 32}) {
            if (dw > max_dw) break;
            exec::MwdParams p;
            p.dw = dw;
            p.bz = bz;
            p.tx = tx;
            p.tz = tz;
            p.tc = tc;
            p.num_tgs = num_tgs;
            out.push_back(p);
          }
        }
      }
    }
  }
  // Deterministic order helps tests and reproducibility.
  std::sort(out.begin(), out.end(), [](const exec::MwdParams& a, const exec::MwdParams& b) {
    if (a.num_tgs != b.num_tgs) return a.num_tgs < b.num_tgs;
    if (a.tc != b.tc) return a.tc < b.tc;
    if (a.tz != b.tz) return a.tz < b.tz;
    if (a.bz != b.bz) return a.bz < b.bz;
    return a.dw < b.dw;
  });
  return out;
}

std::vector<int> enumerate_shard_counts(int threads, const grid::Extents& grid,
                                        const SpaceLimits& limits) {
  std::vector<int> out{1};
  const int cap = std::max(1, std::min(limits.max_shards, threads));
  for (int k = 2; k <= cap; ++k) {
    if (grid.nz / k < limits.min_shard_planes) break;
    out.push_back(k);
  }
  return out;
}

std::vector<int> enumerate_exchange_intervals(int num_shards, const grid::Extents& grid,
                                              const SpaceLimits& limits) {
  if (num_shards <= 1) return {1};
  // The overlap (== interval) must not exceed the smallest owned z-block of
  // a balanced K-way split, or the Partitioner would need planes a neighbor
  // does not own exactly.
  const int min_owned = grid.nz / num_shards;
  const int cap = std::min(std::max(1, limits.max_exchange_interval), std::max(1, min_owned));
  std::vector<int> out;
  for (int t = 1; t <= cap; ++t) out.push_back(t);
  return out;
}

std::string ShardPlan::describe() const {
  std::ostringstream os;
  os << "plan{K=" << num_shards << ",T=" << exchange_interval;
  if (transport != "local") os << ",transport=" << transport;
  os << ",[";
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (s) os << " ";
    os << per_shard[s].describe();
  }
  os << "]}";
  return os.str();
}

exec::EngineSpec ShardPlan::to_spec() const {
  exec::EngineSpec s;
  s.kind = "sharded";
  s.add("shards", static_cast<long>(num_shards))
      .add("interval", static_cast<long>(exchange_interval));
  if (transport != "local") s.add("transport", transport);
  if (!per_shard.empty()) {
    // tps pins the plan's thread budget so the registry builds the plan
    // exactly instead of re-deriving the budget from the context's.
    s.add("tps", static_cast<long>(per_shard.front().threads()));
    const bool uniform =
        std::all_of(per_shard.begin(), per_shard.end(),
                    [&](const exec::MwdParams& p) { return p == per_shard.front(); });
    if (uniform) {
      s.add("inner", exec::to_spec(per_shard.front()));
    } else {
      for (std::size_t i = 0; i < per_shard.size(); ++i) {
        s.add("inner" + std::to_string(i), exec::to_spec(per_shard[i]));
      }
    }
  }
  return s;
}

double transport_cost_factor(const std::string& transport) {
  if (transport == "local") return 1.0;
  if (transport == "shm") return 1.15;   // same memcpy + ring-slot protocol
  return 2.0;                            // mpi and unknown transports
}

}  // namespace emwd::tune
