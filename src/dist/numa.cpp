#include "dist/numa.hpp"

#include "util/affinity.hpp"
#include "util/machine_detect.hpp"

namespace emwd::dist {

NumaTopology NumaTopology::detect() {
  const util::HostInfo host = util::detect_host();
  NumaTopology topo;
  topo.num_nodes = host.num_numa_nodes;
  topo.node_cpus = host.numa_node_cpus;
  if (topo.num_nodes < 1 || topo.node_cpus.empty()) {
    return single_node(host.logical_cpus);
  }
  return topo;
}

NumaTopology NumaTopology::single_node(int cpus) {
  NumaTopology topo;
  topo.num_nodes = 1;
  topo.node_cpus.emplace_back();
  for (int c = 0; c < cpus; ++c) topo.node_cpus[0].push_back(c);
  return topo;
}

int node_for_shard(const NumaTopology& topo, int shard, int num_shards) {
  if (topo.num_nodes <= 1 || num_shards <= 0) return 0;
  // Contiguous blocks: shards 0..K/N-1 on node 0, etc.  Neighboring shards
  // land on the same or adjacent nodes, which keeps most halo traffic local.
  return shard * topo.num_nodes / num_shards;
}

bool bind_current_thread_to_node(const NumaTopology& topo, int node) {
  if (topo.num_nodes <= 1) return false;  // nothing to gain; keep the OS free
  if (node < 0 || node >= static_cast<int>(topo.node_cpus.size())) return false;
  return util::pin_current_thread(topo.node_cpus[static_cast<std::size_t>(node)]);
}

}  // namespace emwd::dist
