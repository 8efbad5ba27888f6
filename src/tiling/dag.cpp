#include "tiling/dag.hpp"

#include <algorithm>

namespace emwd::tiling {

TileDag::TileDag(const DiamondTiling& tiling) {
  const auto& tiles = tiling.tiles();
  dep_count_.assign(tiles.size(), 0);
  dependents_.assign(tiles.size(), {});
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    for (const TileCoord& d : tiling.deps(tiles[i])) {
      const long di = tiling.index_of(d);
      dep_count_[i]++;
      dependents_[static_cast<std::size_t>(di)].push_back(static_cast<std::int32_t>(i));
    }
  }
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (dep_count_[i] == 0) initial_ready_.push_back(static_cast<std::int32_t>(i));
  }
}

TileQueue::TileQueue(const TileDag& dag) : dag_(&dag), remaining_deps_(dag.num_tiles()) {
  reset();
}

void TileQueue::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < dag_->num_tiles(); ++i) remaining_deps_[i] = dag_->dep_count(i);
  ready_.assign(dag_->initial_ready().begin(), dag_->initial_ready().end());
  head_ = 0;
  completed_ = 0;
  max_ready_ = ready_.size();
}

std::optional<std::int32_t> TileQueue::pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return head_ < ready_.size() || completed_ == dag_->num_tiles(); });
  if (head_ < ready_.size()) return ready_[head_++];
  return std::nullopt;  // all tiles completed
}

void TileQueue::complete(std::int32_t tile_index) {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  for (std::int32_t dep : dag_->dependents(static_cast<std::size_t>(tile_index))) {
    if (--remaining_deps_[static_cast<std::size_t>(dep)] == 0) ready_.push_back(dep);
  }
  max_ready_ = std::max(max_ready_, ready_.size() - head_);
  // Wake every waiting TG leader: new tiles may be ready, or we may be done.
  cv_.notify_all();
}

std::size_t TileQueue::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::size_t TileQueue::max_ready_observed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_ready_;
}

}  // namespace emwd::tiling
