#include "cachesim/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "cachesim/reuse.hpp"

#include "exec/traversal.hpp"
#include "kernels/update.hpp"
#include "tiling/dag.hpp"
#include "tiling/diamond.hpp"

namespace emwd::cachesim {
namespace {

/// Array-id map for synthetic addresses: fields 0..11, t 12..23, c 24..35,
/// sources 36..39.
int field_id(kernels::Comp c) { return kernels::idx(c); }
int coeff_t_id(kernels::Comp c) { return 12 + kernels::idx(c); }
int coeff_c_id(kernels::Comp c) { return 24 + kernels::idx(c); }
int source_id(int src_index) { return 36 + src_index; }

std::int64_t comp_row_cells = 0;  // thread-unsafe accumulation is fine: replay is serial

/// Emit the access stream of one run of rows, row by row in y order, into
/// any sink exposing access_range(addr, bytes, write) — Hierarchy, a
/// private cache front-end, or a recording sink.
template <class Sink>
void touch_rows_impl(Sink& h, const grid::Layout& L, kernels::Comp comp, int x0, int x1,
                     int y0, int y1, int k) {
  if (x1 <= x0) return;
  const kernels::CompInfo& ci = kernels::info(comp);
  const std::uint64_t bytes = static_cast<std::uint64_t>(x1 - x0) * 16u;
  const std::ptrdiff_t shift = kernels::shift_offset(L, comp);
  for (int j = y0; j < y1; ++j) {
    const std::uint64_t base = L.at(x0, j, k);
    // Reads in roughly kernel order: component (RMW read), coefficients,
    // optional source, partners at base and shifted index.
    h.access_range(array_addr(field_id(comp), base), bytes, false);
    h.access_range(array_addr(coeff_t_id(comp), base), bytes, false);
    h.access_range(array_addr(coeff_c_id(comp), base), bytes, false);
    if (ci.src_index >= 0) {
      h.access_range(array_addr(source_id(ci.src_index), base), bytes, false);
    }
    h.access_range(array_addr(field_id(ci.partner_a), base), bytes, false);
    h.access_range(array_addr(field_id(ci.partner_b), base), bytes, false);
    h.access_range(array_addr(field_id(ci.partner_a), base + shift), bytes, false);
    h.access_range(array_addr(field_id(ci.partner_b), base + shift), bytes, false);
    // The component write (write-back, so it becomes DRAM traffic on
    // eviction).
    h.access_range(array_addr(field_id(comp), base), bytes, true);
    comp_row_cells += (x1 - x0);
  }
}

TrafficResult finish(Hierarchy& h) {
  h.flush();
  TrafficResult r;
  r.lups = comp_row_cells / kernels::kNumComps;
  r.read_bytes = h.dram_read_bytes();
  r.write_bytes = h.dram_write_bytes();
  return r;
}

/// Locate a full interior tile (all 2*dw-1 slices present, nothing clipped)
/// of a dw-diamond tiling; dw full steps suffice for a complete diamond.
tiling::TileCoord find_interior_tile(const tiling::DiamondTiling& dt) {
  for (const auto& t : dt.tiles()) {
    const auto slices = dt.slices(t);
    if (static_cast<int>(slices.size()) != 2 * dt.dw() - 1) continue;
    bool clipped = false;
    int expect_peak = 0;
    for (const auto& sl : slices) expect_peak = std::max(expect_peak, sl.width());
    if (expect_peak != dt.dw()) clipped = true;
    if (slices.front().width() != 1 || slices.back().width() != 1) clipped = true;
    if (!clipped) return t;
  }
  throw std::runtime_error(
      "replay_single_tile: no unclipped tile; enlarge ny/nt relative to dw");
}

/// Walk one full interior tile the way a one-thread group runs it.
template <class RunFn>
void walk_interior_tile(const grid::Layout& L, int dw, int bz, RunFn&& run) {
  const tiling::DiamondTiling dt(dw, L.ny(), std::max(dw, 2));
  exec::traverse_tile(dt, find_interior_tile(dt), bz, L.nz(), exec::TgShape{},
                      exec::TgSlot{}, run, [] {});
}

}  // namespace

void touch_comp_rows(Hierarchy& h, const grid::Layout& L, kernels::Comp comp, int x0,
                     int x1, int y0, int y1, int k) {
  touch_rows_impl(h, L, comp, x0, x1, y0, y1, k);
}

TrafficResult replay_spatial(const grid::Layout& L, int steps, int block_y, Hierarchy& h) {
  comp_row_cells = 0;
  const int nx = L.nx();
  for (int step = 0; step < steps; ++step) {
    for (bool h_phase : {true, false}) {
      exec::traverse_sweep(h_phase, L.ny(), 0, L.nz(), block_y,
                           [&](kernels::Comp comp, int y0, int y1, int z) {
                             touch_rows_impl(h, L, comp, 0, nx, y0, y1, z);
                           });
    }
  }
  return finish(h);
}

/// Drive the MWD schedule and hand every run of rows to
/// `run(batch_slot, comp, y_lo, y_hi, z)`.
/// Tiles are grouped by DAG wavefront (mutually independent); within a wave,
/// batches of num_tgs tiles have their per-(front, half-step) quanta — the
/// exec::traverse_slice calls traverse_tile makes between barriers —
/// interleaved round-robin, approximating the cache mixing of num_tgs
/// concurrently-executing thread groups.  batch_slot identifies which of
/// the num_tgs "virtual groups" issued the run.
template <class RunFn>
void drive_mwd(const grid::Layout& L, int steps, const exec::MwdParams& params,
               RunFn&& run) {
  const int nz = L.nz();
  tiling::DiamondTiling dt(params.dw, L.ny(), steps);
  const auto& tiles = dt.tiles();
  std::size_t wave_begin = 0;

  while (wave_begin < tiles.size()) {
    std::size_t wave_end = wave_begin;
    const long w = tiles[wave_begin].wavefront();
    while (wave_end < tiles.size() && tiles[wave_end].wavefront() == w) ++wave_end;

    for (std::size_t batch = wave_begin; batch < wave_end;
         batch += static_cast<std::size_t>(params.num_tgs)) {
      const std::size_t batch_end =
          std::min(wave_end, batch + static_cast<std::size_t>(params.num_tgs));

      struct TilePlan {
        std::vector<tiling::RowSlice> slices;
        int fronts = 0;
      };
      std::vector<TilePlan> plans;
      for (std::size_t t = batch; t < batch_end; ++t) {
        TilePlan plan;
        plan.slices = dt.slices(tiles[t]);
        if (!plan.slices.empty()) {
          plan.fronts = tiling::num_fronts(nz, params.bz, plan.slices.front().s,
                                           plan.slices.back().s);
        }
        plans.push_back(std::move(plan));
      }

      std::size_t max_quanta = 0;
      for (const auto& p : plans) {
        max_quanta =
            std::max(max_quanta, p.slices.size() * static_cast<std::size_t>(p.fronts));
      }
      for (std::size_t q = 0; q < max_quanta; ++q) {
        for (std::size_t slot = 0; slot < plans.size(); ++slot) {
          const auto& p = plans[slot];
          const std::size_t nslices = p.slices.size();
          if (nslices == 0 || q >= nslices * static_cast<std::size_t>(p.fronts)) continue;
          const int f = static_cast<int>(q / nslices);
          exec::traverse_slice(p.slices[q % nslices], f * params.bz, params.bz,
                               p.slices.front().s, nz, exec::TgShape{}, exec::TgSlot{},
                               [&](kernels::Comp comp, int /*s*/, int y0, int y1, int z) {
                                 run(static_cast<int>(slot), comp, y0, y1, z);
                               });
        }
      }
    }
    wave_begin = wave_end;
  }
}

TrafficResult replay_mwd(const grid::Layout& L, int steps, const exec::MwdParams& params,
                         Hierarchy& h) {
  comp_row_cells = 0;
  const int nx = L.nx();
  drive_mwd(L, steps, params, [&](int /*slot*/, kernels::Comp comp, int y0, int y1, int z) {
    touch_rows_impl(h, L, comp, 0, nx, y0, y1, z);
  });
  return finish(h);
}

PrivateSharedResult replay_mwd_private(const grid::Layout& L, int steps,
                                       const exec::MwdParams& params,
                                       std::uint64_t private_bytes,
                                       std::uint64_t llc_bytes) {
  comp_row_cells = 0;
  const int nx = L.nx();

  Hierarchy shared = Hierarchy::llc_only(llc_bytes);

  // One private cache per virtual thread group; misses and dirty victims
  // cascade into the shared LLC.
  struct PrivateFront {
    explicit PrivateFront(std::uint64_t bytes)
        : cache(CacheConfig{bytes, 8, 64}) {}
    Cache cache;
    Hierarchy* next = nullptr;
    std::uint64_t to_shared_bytes = 0;

    void access_range(std::uint64_t addr, std::uint64_t bytes, bool write) {
      if (bytes == 0) return;
      const std::uint64_t first = addr & ~63ull;
      const std::uint64_t last = (addr + bytes - 1) & ~63ull;
      for (std::uint64_t a = first; a <= last; a += 64) {
        const Cache::AccessResult r = cache.access_ex(a, write);
        if (r.evicted && r.evicted_dirty) {
          next->access(r.evicted_addr, true);
          to_shared_bytes += 64;
        }
        if (!r.hit) {
          next->access(a, false);
          to_shared_bytes += 64;
        }
      }
    }
  };

  std::vector<PrivateFront> fronts;
  fronts.reserve(static_cast<std::size_t>(params.num_tgs));
  for (int g = 0; g < params.num_tgs; ++g) {
    fronts.emplace_back(private_bytes);
  }
  for (auto& f : fronts) f.next = &shared;

  drive_mwd(L, steps, params, [&](int slot, kernels::Comp comp, int y0, int y1, int z) {
    touch_rows_impl(fronts[static_cast<std::size_t>(slot)], L, comp, 0, nx, y0, y1, z);
  });

  PrivateSharedResult out;
  for (auto& f : fronts) {
    // Drain dirty private lines into the LLC for honest end accounting.
    const std::uint64_t before = f.cache.stats().writebacks;
    f.cache.flush();
    const std::uint64_t drained = (f.cache.stats().writebacks - before) * 64;
    f.to_shared_bytes += drained;
    out.private_to_llc_bytes += f.to_shared_bytes;
  }
  shared.flush();
  out.lups = comp_row_cells / kernels::kNumComps;
  out.dram_read_bytes = shared.dram_read_bytes();
  out.dram_write_bytes = shared.dram_write_bytes();
  return out;
}

TrafficResult replay_single_tile(const grid::Layout& L, int dw, int bz, Hierarchy& h) {
  comp_row_cells = 0;
  walk_interior_tile(L, dw, bz, [&](kernels::Comp comp, int /*s*/, int y0, int y1, int z) {
    touch_rows_impl(h, L, comp, 0, L.nx(), y0, y1, z);
  });
  // A single tile updates cells over multiple half-steps; report LUPs as
  // cell-half-step-component updates / 12 as usual.
  return finish(h);
}

std::uint64_t tile_working_set_bytes(const grid::Layout& L, int dw, int bz) {
  // Distinct lines of every access (a row's write hits its first read's).
  struct LineSet {
    std::unordered_set<std::uint64_t> lines;
    void access_range(std::uint64_t addr, std::uint64_t bytes, bool /*write*/) {
      for (std::uint64_t a = addr / 64u; a <= (addr + bytes - 1) / 64u; ++a) lines.insert(a);
    }
  } sink;

  // Working set that must stay resident for full in-tile reuse: the lines
  // touched while the wavefront sweeps one front position, plus the previous
  // position's still-live lines.  We measure the steady-state two-front
  // footprint in the middle of the z range: the traverse_tile quanta of
  // those two fronts.
  const tiling::DiamondTiling dt(dw, L.ny(), std::max(dw, 2));
  const auto slices = dt.slices(find_interior_tile(dt));
  const int s_base = slices.front().s;
  const int mid = tiling::num_fronts(L.nz(), bz, s_base, slices.back().s) / 2;
  for (int f = mid - 1; f <= mid; ++f) {
    for (const tiling::RowSlice& sl : slices) {
      exec::traverse_slice(sl, f * bz, bz, s_base, L.nz(), exec::TgShape{}, exec::TgSlot{},
                           [&](kernels::Comp comp, int /*s*/, int y0, int y1, int z) {
                             touch_rows_impl(sink, L, comp, 0, L.nx(), y0, y1, z);
                           });
    }
  }
  return static_cast<std::uint64_t>(sink.lines.size()) * 64u;
}

ReuseProfile tile_reuse_profile(const grid::Layout& L, int dw, int bz) {
  // The profile records the reads: a row's write hits its first read's lines.
  struct ReadSink {
    ReuseProfile profile;
    void access_range(std::uint64_t addr, std::uint64_t bytes, bool write) {
      if (!write) profile.touch_range(addr, bytes);
    }
  } sink;
  walk_interior_tile(L, dw, bz, [&](kernels::Comp comp, int /*s*/, int y0, int y1, int z) {
    touch_rows_impl(sink, L, comp, 0, L.nx(), y0, y1, z);
  });
  return sink.profile;
}

}  // namespace emwd::cachesim
