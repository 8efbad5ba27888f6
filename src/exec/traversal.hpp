// Shared traversals: the single source of truth for every engine's
// iteration order, used both by the computing engines and by the
// cache-simulator replay (cachesim/replay).  Keeping one traversal per
// engine family guarantees the "measured" memory traffic is the traffic of
// the exact access stream the real engine generates:
//   traverse_sweep — the untiled half-step of the naive and spatial
//                    engines (exec/spatial_engine), naive being by >= ny;
//   traverse_tile  — one MWD diamond tile (exec/mwd_engine, and through
//                    it the wavefront engine), built from traverse_slice,
//                    which the replay also interleaves across groups.
#pragma once

#include <algorithm>
#include <utility>

#include "kernels/components.hpp"
#include "tiling/diamond.hpp"
#include "tiling/wavefront.hpp"

namespace emwd::exec {

/// Shape of a thread group: the paper's multi-dimensional intra-tile
/// parallelization (Sec. II-B).  tx splits the x rows, tz the z-planes of a
/// wavefront window, tc the six concurrently-updatable field components.
/// The y (diamond) dimension is deliberately not split (Sec. II-B explains
/// why load balancing forbids it).
struct TgShape {
  int tx = 1;
  int tz = 1;
  int tc = 1;
  int size() const { return tx * tz * tc; }
};

/// A thread's coordinates inside the group (FED: fixed for the whole run).
struct TgSlot {
  int rx = 0;
  int rz = 0;
  int rc = 0;
  static TgSlot from_rank(int rank, const TgShape& shape) {
    TgSlot s;
    s.rx = rank % shape.tx;
    rank /= shape.tx;
    s.rz = rank % shape.tz;
    s.rc = rank / shape.tz;
    return s;
  }
};

/// Traverse one half-step of the untiled sweep over the z-planes [z0, z1),
/// invoking row(comp, y, z) for every x-row.  The phase's six components run
/// in update order.  A z-shift component walks y-blocks of `by` rows
/// outermost, so that the block's previous-plane layer of its two partner
/// arrays stays cached (the layer condition of paper Sec. III-B); the other
/// components sweep plane by plane.  by >= ny is the naive order (Sec.
/// III-A): every component plane by plane, y innermost.  by < 1 reads as 1.
template <class RowFn>
void traverse_sweep(bool h_phase, int ny, int z0, int z1, int by, RowFn&& row) {
  const auto& comps = h_phase ? kernels::kHComps : kernels::kEComps;
  for (kernels::Comp comp : comps) {
    const int block =
        kernels::info(comp).axis == kernels::Axis::Z ? std::max(1, std::min(by, ny)) : ny;
    for (int y0 = 0; y0 < ny; y0 += block) {
      const int y1 = std::min(ny, y0 + block);
      for (int z = z0; z < z1; ++z) {
        for (int y = y0; y < y1; ++y) row(comp, y, z);
      }
    }
  }
}

/// One quantum of a diamond tile: the half-step slice `sl` at wavefront
/// front position `front`, for a tile whose first half-step is `s_base`.
/// Invokes row(comp, s, y, z) for every x-row of the slice's z-window this
/// slot owns: components outermost, then z-planes, then y-rows.  Slot rc
/// owns comps {rc, rc+tc, ...} of the half-step's six; the window's planes
/// go round-robin over rz.  The x split is the caller's job via the slot's
/// rx (the row callback receives the full row; callers slice [x0, x1)
/// themselves with split_range).  Returns false, invoking nothing, when the
/// window is empty; that is uniform across a group's slots.
template <class RowFn>
bool traverse_slice(const tiling::RowSlice& sl, int front, int bz, int s_base, int nz,
                    const TgShape& shape, const TgSlot& slot, RowFn&& row) {
  const tiling::ZWindow win = tiling::z_window(front, bz, sl.s, s_base, nz);
  if (win.empty()) return false;
  const auto& comps = sl.h_phase ? kernels::kHComps : kernels::kEComps;
  for (int ci = slot.rc; ci < 6; ci += shape.tc) {
    for (int z = win.lo + slot.rz; z < win.hi; z += shape.tz) {
      for (int y = sl.y_lo; y < sl.y_hi; ++y) {
        row(comps[static_cast<std::size_t>(ci)], sl.s, y, z);
      }
    }
  }
  return true;
}

/// Traverse one diamond tile with the z-wavefront, invoking
///   row(comp, s, y, z)        for every x-row this slot owns, and
///   barrier()                 between half-steps (all slots, same count).
///
/// Iteration order (identical for every slot): wavefront front positions
/// outermost, then half-steps ascending, each one traverse_slice quantum.
/// A quantum with an empty window has no barrier.
template <class RowFn, class BarrierFn>
void traverse_tile(const tiling::DiamondTiling& dt, tiling::TileCoord tc_coord, int bz,
                   int nz, const TgShape& shape, const TgSlot& slot, RowFn&& row,
                   BarrierFn&& barrier) {
  const auto slices = dt.slices(tc_coord);
  if (slices.empty()) return;
  const int s_base = slices.front().s;
  const int fronts = tiling::num_fronts(nz, bz, s_base, slices.back().s);
  for (int f = 0; f < fronts; ++f) {
    for (const tiling::RowSlice& sl : slices) {
      if (traverse_slice(sl, f * bz, bz, s_base, nz, shape, slot, row)) barrier();
    }
  }
}

}  // namespace emwd::exec
