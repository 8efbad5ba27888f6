// The THIIM stencil's 12 split-field components and their dependency table.
//
// Naming follows the paper's Fig. 3: the first subscript is the parent field
// component, the second names the partner component whose two split parts are
// read (e.g. Hyx is the part of Hy fed by the z-derivative of Ex = Exy+Exz).
// Each Ĥ component reads its partner Ê parts at a unit *negative* offset and
// each Ê component reads partner Ĥ parts at a unit *positive* offset along
// exactly one axis.  Four components (the z-shift ones) additionally read a
// source array; those are the updates shown in the paper's Listing 1 (22
// flops); the other eight follow Listing 2 (20 flops).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace emwd::kernels {

enum class Comp : std::uint8_t {
  Exy = 0,
  Exz,
  Eyx,
  Eyz,
  Ezx,
  Ezy,
  Hxy,
  Hxz,
  Hyx,
  Hyz,
  Hzx,
  Hzy,
};

inline constexpr int kNumComps = 12;
inline constexpr int kNumSources = 4;  // SrcEx, SrcEy, SrcHx, SrcHy

enum class Axis : std::uint8_t { X = 0, Y = 1, Z = 2 };

/// Static description of one component update.
struct CompInfo {
  Comp self;
  std::string_view name;
  bool is_h;           // Ĥ components update in the first half-step
  Comp partner_a;      // first split part read (e.g. Exy)
  Comp partner_b;      // second split part read (e.g. Exz)
  Axis axis;           // shift axis == derivative axis == PML damping axis
  int shift;           // -1 for Ĥ, +1 for Ê (unit offset along `axis`)
  int diff_sign;       // +1: (current - shifted); -1: (shifted - current)
  int src_index;       // 0..3 into the source array set, or -1
  int flops;           // per lattice site, matches the paper's counts
};

/// Position of cell (i, j, k) along `axis`.
constexpr int axis_position(Axis axis, int i, int j, int k) {
  return axis == Axis::X ? i : axis == Axis::Y ? j : k;
}

/// Index into the 12-entry tables.
constexpr int idx(Comp c) { return static_cast<int>(c); }

/// The canonical table (order matches the Comp enum).  The diff_sign column
/// is the sign of the partner's term in the curl that drives the component
/// (curl E for Ĥ rows, curl H for Ê rows): (curl E)_y = dEx/dz - dEz/dx
/// gives Hyx +1 and Hyz -1.  The two paper listings pin down Hyx (+1) and
/// Hzx (-1).
constexpr std::array<CompInfo, kNumComps> kComps{{
    // self   name    is_h  partner_a  partner_b  axis     shift ds  src flops
    {Comp::Exy, "Exy", false, Comp::Hyx, Comp::Hyz, Axis::Z, +1, -1, 0, 22},
    {Comp::Exz, "Exz", false, Comp::Hzx, Comp::Hzy, Axis::Y, +1, +1, -1, 20},
    {Comp::Eyx, "Eyx", false, Comp::Hxy, Comp::Hxz, Axis::Z, +1, +1, 1, 22},
    {Comp::Eyz, "Eyz", false, Comp::Hzx, Comp::Hzy, Axis::X, +1, -1, -1, 20},
    {Comp::Ezx, "Ezx", false, Comp::Hxy, Comp::Hxz, Axis::Y, +1, -1, -1, 20},
    {Comp::Ezy, "Ezy", false, Comp::Hyx, Comp::Hyz, Axis::X, +1, +1, -1, 20},
    {Comp::Hxy, "Hxy", true, Comp::Eyx, Comp::Eyz, Axis::Z, -1, -1, 2, 22},
    {Comp::Hxz, "Hxz", true, Comp::Ezx, Comp::Ezy, Axis::Y, -1, +1, -1, 20},
    {Comp::Hyx, "Hyx", true, Comp::Exy, Comp::Exz, Axis::Z, -1, +1, 3, 22},
    {Comp::Hyz, "Hyz", true, Comp::Ezx, Comp::Ezy, Axis::X, -1, -1, -1, 20},
    {Comp::Hzx, "Hzx", true, Comp::Exy, Comp::Exz, Axis::Y, -1, -1, -1, 20},
    {Comp::Hzy, "Hzy", true, Comp::Eyx, Comp::Eyz, Axis::X, -1, +1, -1, 20},
}};

constexpr const CompInfo& info(Comp c) { return kComps[idx(c)]; }

/// The six Ê / six Ĥ components, in update order.
constexpr std::array<Comp, 6> kEComps{Comp::Exy, Comp::Exz, Comp::Eyx,
                                      Comp::Eyz, Comp::Ezx, Comp::Ezy};
constexpr std::array<Comp, 6> kHComps{Comp::Hxy, Comp::Hxz, Comp::Hyx,
                                      Comp::Hyz, Comp::Hzx, Comp::Hzy};

/// Source array names by src_index.
constexpr std::array<std::string_view, kNumSources> kSourceNames{"SrcEx", "SrcEy",
                                                                 "SrcHx", "SrcHy"};

/// Total floating-point operations per full lattice-site update (all 12
/// component updates): the paper counts 4*22 + 8*20 = 248 DP flops/LUP.
constexpr int total_flops_per_lup() {
  int sum = 0;
  for (const auto& c : kComps) sum += c.flops;
  return sum;
}
static_assert(total_flops_per_lup() == 248, "must match the paper's Sec. III-A count");

/// Compile-time sanity checks on the table (mirrored by runtime tests).
constexpr bool table_is_consistent() {
  for (int i = 0; i < kNumComps; ++i) {
    const CompInfo& c = kComps[i];
    if (idx(c.self) != i) return false;
    if (c.is_h != (i >= 6)) return false;
    // Ĥ reads Ê parts and vice versa.
    if (info(c.partner_a).is_h == c.is_h) return false;
    if (info(c.partner_b).is_h == c.is_h) return false;
    if (c.shift != (c.is_h ? -1 : +1)) return false;
    if (c.flops != ((c.src_index >= 0) ? 22 : 20)) return false;
    // Sources only on z-shift components.
    if ((c.src_index >= 0) != (c.axis == Axis::Z)) return false;
  }
  return true;
}
static_assert(table_is_consistent());

}  // namespace emwd::kernels
