// Tile dependency DAG and the ready queue (paper Sec. II-A).
//
// "Diamond tiles are dynamically scheduled to the available TGs.  A FIFO
// queue keeps track of the available diamond tiles for updating.  TGs pop
// tiles from this queue to update them.  When a TG completes a tile update,
// it pushes to the queue its dependent diamond tile, if that has no other
// dependencies.  The queue update is performed in an OpenMP critical
// region."  We use a mutex + condition variable for the critical region.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "tiling/diamond.hpp"

namespace emwd::tiling {

/// Immutable dependency structure over a DiamondTiling's tiles.
class TileDag {
 public:
  explicit TileDag(const DiamondTiling& tiling);

  std::size_t num_tiles() const { return dep_count_.size(); }
  int dep_count(std::size_t tile_index) const { return dep_count_[tile_index]; }
  const std::vector<std::int32_t>& dependents(std::size_t tile_index) const {
    return dependents_[tile_index];
  }
  const std::vector<std::int32_t>& initial_ready() const { return initial_ready_; }

 private:
  std::vector<int> dep_count_;
  std::vector<std::vector<std::int32_t>> dependents_;
  std::vector<std::int32_t> initial_ready_;
};

/// Thread-safe FIFO ready queue of tiles.  pop() blocks until a tile is
/// ready or every tile has been completed (then returns nullopt).
class TileQueue {
 public:
  explicit TileQueue(const TileDag& dag);

  /// Pop the oldest ready tile; nullopt once all tiles are completed.
  std::optional<std::int32_t> pop();

  /// Mark a tile completed; pushes newly-ready dependents.
  void complete(std::int32_t tile_index);

  /// Restore the post-construction state so the queue can be reused for
  /// another run.
  void reset();

  /// Tiles completed so far.
  std::size_t completed() const;

  /// Largest number of simultaneously-ready tiles observed (test hook).
  std::size_t max_ready_observed() const;

 private:
  const TileDag* dag_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::int32_t> ready_;  // FIFO: pop from head_
  std::size_t head_ = 0;
  std::vector<int> remaining_deps_;
  std::size_t completed_ = 0;
  std::size_t max_ready_ = 0;
};

}  // namespace emwd::tiling
