// NUMA-aware shard placement.
//
// Each shard's FieldSet is allocated and zero-filled (first touch) by a
// thread already bound to the shard's NUMA node, so the shard's field
// arrays and class ids (and, at scatter, its source planes) are resident in
// that node's local memory and the inner engine's threads
// (which inherit the binding) never cross the socket interconnect for
// interior work — only the halo exchange does.
#pragma once

#include <vector>

namespace emwd::dist {

struct NumaTopology {
  int num_nodes = 1;
  std::vector<std::vector<int>> node_cpus;  // logical cpu ids per node

  /// From util::detect_host(); single-node fallback when sysfs is absent.
  static NumaTopology detect();

  /// A trivial topology (1 node, `cpus` cpus) for tests and forced-off runs.
  static NumaTopology single_node(int cpus);
};

/// Round-robin shard -> node assignment; contiguous blocks of shards share
/// a node when there are more shards than nodes.
int node_for_shard(const NumaTopology& topo, int shard, int num_shards);

/// Pin the calling thread to `node`'s cpu set (sched_setaffinity).  Child
/// threads spawned afterwards inherit the mask, which is how the inner
/// engine's ThreadTeam stays on-node.  Returns false (and leaves affinity
/// untouched) when the platform or the cpu set doesn't support it.
bool bind_current_thread_to_node(const NumaTopology& topo, int node);

}  // namespace emwd::dist
