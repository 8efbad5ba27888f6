#include "dist/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "exec/thread_pool.hpp"

namespace emwd::dist {

Partitioner::Partitioner(grid::Extents global, int num_shards, int overlap)
    : global_(global), overlap_(overlap) {
  if (num_shards < 1) throw std::invalid_argument("Partitioner: num_shards must be >= 1");
  if (num_shards > global.nz) {
    throw std::invalid_argument("Partitioner: more shards than z-planes");
  }
  if (num_shards > 1 && overlap < 1) {
    throw std::invalid_argument("Partitioner: overlap must be >= 1 with multiple shards");
  }

  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const exec::Chunk c = exec::split_range(global.nz, num_shards, s);
    ShardExtent e;
    e.z0 = c.begin;
    e.z1 = c.end;
    e.lo = (s == 0) ? 0 : overlap;
    e.hi = (s == num_shards - 1) ? 0 : overlap;
    shards_.push_back(e);
  }

  // Every interior cut borrows `overlap` planes from each side; the donor
  // must own them exactly, so the smallest owned block bounds the overlap.
  const int min_owned = global.nz / num_shards;
  if (num_shards > 1 && overlap > min_owned) {
    throw std::invalid_argument("Partitioner: overlap " + std::to_string(overlap) +
                                " exceeds smallest owned block " +
                                std::to_string(min_owned));
  }
}

grid::Layout Partitioner::shard_layout(int s) const {
  const ShardExtent& e = shard(s);
  return grid::Layout({global_.nx, global_.ny, e.ext_nz()});
}

void Partitioner::scatter(const grid::FieldSet& global_fs, grid::FieldSet& shard_fs,
                          int s) const {
  const ShardExtent& e = shard(s);
  shard_fs.copy_field_planes_from(global_fs, e.ext_z0(), 0, e.ext_nz());
  shard_fs.copy_static_planes_from(global_fs, e.ext_z0(), 0, e.ext_nz());
  shard_fs.set_x_boundary(global_fs.x_boundary());
}

int Partitioner::clamp_shards(int nz, int requested, int overlap) {
  const int by_planes = std::max(1, nz / std::max(1, overlap));
  return std::clamp(requested, 1, std::min(nz, by_planes));
}

}  // namespace emwd::dist
