// Domain decomposition along z (the outer, non-tiled dimension).
//
// Each shard owns a contiguous block of z-planes [z0, z1) and additionally
// carries `overlap` ghost planes on each interior side.  The overlap depth
// equals the halo-exchange interval: the THIIM dependency cone grows one
// z-plane per time step in each direction (an Ê update reads Ĥ of the same
// step one plane up, which read Ê of the previous step one plane down), so
// after T steps computed locally only the planes within T of an interior
// shard edge are contaminated by the stale boundary — exactly the overlap
// region, which the next halo exchange refreshes from the neighbor's owned
// (exact) planes.  The owned region therefore stays bit-identical to an
// undecomposed run for ANY inner engine that is itself exact, including the
// temporally-blocked MWD/wavefront engines.
#pragma once

#include <vector>

#include "grid/fieldset.hpp"
#include "grid/layout.hpp"

namespace emwd::dist {

/// One shard's z-extent in global plane coordinates.
struct ShardExtent {
  int z0 = 0;      // first owned global z-plane
  int z1 = 0;      // one past the last owned global z-plane
  int lo = 0;      // ghost planes below z0 (0 for the bottom shard)
  int hi = 0;      // ghost planes above z1 (0 for the top shard)

  int owned() const { return z1 - z0; }
  int ext_z0() const { return z0 - lo; }
  int ext_z1() const { return z1 + hi; }
  int ext_nz() const { return ext_z1() - ext_z0(); }

  /// Global plane g in this shard's local coordinates (local 0 == ext_z0).
  int to_local(int g) const { return g - ext_z0(); }

  friend bool operator==(const ShardExtent&, const ShardExtent&) = default;
};

class Partitioner {
 public:
  /// Balanced split of `global` into `num_shards` z-blocks with `overlap`
  /// ghost planes at every interior cut.  Throws std::invalid_argument when
  /// num_shards < 1, num_shards > nz, overlap < 1 (with num_shards > 1), or
  /// overlap exceeds the smallest owned block (the exchange would then need
  /// planes a neighbor does not own exactly).
  Partitioner(grid::Extents global, int num_shards, int overlap);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int overlap() const { return overlap_; }
  const grid::Extents& global() const { return global_; }
  const ShardExtent& shard(int s) const { return shards_.at(static_cast<std::size_t>(s)); }
  const std::vector<ShardExtent>& shards() const { return shards_; }

  /// Layout for shard `s`: same nx/ny/halo as a global Layout, nz = ext_nz.
  grid::Layout shard_layout(int s) const;

  /// Copy the field, class-id and source planes of the shard's extended
  /// range out of the global set, with each plane's coefficient slice
  /// (shard setup).  `shard_fs` must use shard_layout(s).  Nothing copies
  /// them back: the global set is split onto the shard sets
  /// (grid::FieldSet::split), and joining it copies the owned planes.
  void scatter(const grid::FieldSet& global_fs, grid::FieldSet& shard_fs, int s) const;

  /// Largest shard count so that a balanced split of nz keeps every owned
  /// block >= overlap (and >= 1); always in [1, max_shards].
  static int clamp_shards(int nz, int requested, int overlap);

 private:
  grid::Extents global_{};
  int overlap_ = 1;
  std::vector<ShardExtent> shards_;
};

}  // namespace emwd::dist
