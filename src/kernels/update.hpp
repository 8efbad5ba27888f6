// The THIIM component-update kernels.
//
// update_row() is the library's innermost loop: one x-row of one split
// component, in exactly the complex-arithmetic form of the paper's Listings
// 1 and 2 (interleaved re/im doubles, read-modify-write of the component,
// two partner reads at base and shifted index, complex t and c
// coefficients, optional source term).  Engines reach it through one entry,
// update_comp_rows(), which sets it up once per run of rows of one
// component at one z-plane and folds the periodic wrap into the row.
//
// The paper streams t and c as per-cell arrays.  Engines instead pass a
// row of uint8 coefficient classes and a table slice: cell i reads t and c
// from entry cls[i], so a row streams 1 byte of coefficient index per cell
// instead of 32 (grid/fieldset.hpp).  A vector body takes the row's (t, c)
// from one of three sources, each a compile-time form of one loop:
//   - dense: per-cell t and c, without a class row (the row probes);
//   - indexed: table entry cls[i] for cell i;
//   - uniform: one entry, loaded and arranged once before the loop, when
//     every class byte of the row equals the first (every x-row of a
//     layered scene, and all but its interface rows of a textured one).
//
// Bodies, chosen once per process by CPUID, the widest first:
//   - "avx512" (AVX-512F): four complex cells per 512-bit vector; the last
//     partial vector runs under a lane mask, so masked-off cells are neither
//     loaded nor stored and no scalar remainder is compiled for this target;
//   - "avx2": two cells per 256-bit vector, an odd last cell through the
//     scalar loop;
//   - "scalar": the portable loop update_row_scalar(), the reference.
// row_isa() names the body that runs, engines record it as
// EngineStats::kernel_isa, and row_bodies() lists every body this CPU can
// run, so tests can compare each against the reference.
//
// Every body is bit-exact with the scalar loop, so every engine stays
// bitwise identical to the naive reference whichever body a CPU picks.  The
// scalar loop evaluates, per cell,
//   re' = ((x.re*t.re - x.im*t.im) - c.re*re) + c.im*im
//   im' = ((x.re*t.im + x.im*t.re) - c.re*im) - c.im*re   (+ src),
// and the vector bodies the same sums with signed coefficients,
//   re' = ((x.re*t.re + x.im*(-t.im)) - c.re*re) + im*c.im
//   im' = ((x.im*t.re + x.re*t.im) - c.re*im) + re*(-c.im),
// which is identical bit for bit because a + (-b) == a - b,
// (-a)*b == -(a*b) and + and * commute exactly in IEEE arithmetic.  In
// vector form that is x*tr + swap(x)*ti - cr*d + swap(d)*ci with
// tr = [t.re t.re], ti = [-t.im t.im], cr = [c.re c.re], ci = [c.im -c.im]
// and d = [re im]: two in-lane swaps per vector, and for a uniform row no
// per-vector coefficient shuffle at all.  (NaN payloads may differ; NaN
// stays NaN.)  Bit-exactness also needs the absence of fused multiply-adds.
// The AVX2 body is compiled for target "avx2" alone, never "fma" or a
// -march level that includes it.  AVX-512F itself has 512-bit FMA
// instructions, so for the avx512 body only the build's -ffp-contract=off
// keeps the compiler from fusing a multiply into the add after it
// (simd_test fails without it; CMakeLists.txt notes why -march flags with
// FMA stay out).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/fieldset.hpp"
#include "kernels/components.hpp"

namespace emwd::kernels {

/// Parameters of one row update.  All pointers address interleaved doubles
/// (cls: bytes) and, except t and c under `cls`, already point at the first
/// complex cell of the row (x = x0).
struct RowArgs {
  double* x;             // component being updated (read-modify-write)
  const double* t;       // tX coefficient: per cell, or a table slice under cls
  const double* c;       // cX coefficient: per cell, or a table slice under cls
  const double* src;     // source term or nullptr
  const double* a;       // partner split part A at base index
  const double* b;       // partner split part B at base index
  std::ptrdiff_t shift;  // partner offset in complex cells (signed)
  double ds;             // diff_sign: +1 => (cur - shifted), -1 => (shifted - cur)
  int n;                 // complex cells in the row
  const std::uint8_t* cls = nullptr;  // per-cell table entry, or nullptr (dense)
};

/// X[p] = t[e]*X[p] (+ src[p]) - c[e] * (ds*(A[p]-A[p+shift]) + ds*(B[p]-B[p+shift]))
/// with e = cls[p] under `cls` and e = p without, in full complex
/// arithmetic (22 flops/cell with src, 20 without), by the body row_isa()
/// names.
void update_row(const RowArgs& args) noexcept;

/// "avx512", "avx2" or "scalar": the body update_row() runs on this CPU (a
/// static string, never dangles).
const char* row_isa() noexcept;

/// The portable loop; bit-for-bit what update_row() computes.
void update_row_scalar(const RowArgs& args) noexcept;

/// One body of update_row(): its row_isa() name and its entry point.
struct RowBody {
  const char* isa;
  void (*run)(const RowArgs&) noexcept;
};

/// Every body this CPU can run: the scalar loop first, then "avx2" and
/// "avx512" where CPUID reports them.  update_row() runs the last one.
std::vector<RowBody> row_bodies();

/// The engines' row entry: updates component `comp` on the x-range
/// [x0, x1) of rows [y0, y1) at plane k of `fs`.  Once per run it resolves
/// the component's arrays, shift and diff sign, the table slice of plane k
/// (or the set's one x slice) and the body update_row() dispatches to; per
/// row it sets the pointers, the y slice when y has several, and the source
/// row.  An x-axis row of a set with several x slices runs once per stretch
/// of equal slice.
///
/// Under XBoundary::Periodic an x-shift component reads its wrap-around
/// partners through the one-cell x halo, the paper's Sec. VI scheme: before
/// an Ĥ row whose range starts at x = 0 the run copies the two partners'
/// x = nx-1 cells into their ghost at x = -1, and before an Ê row whose
/// range ends at nx their x = 0 cells into the ghost at x = nx.  So the
/// whole row is one body call, with the operands the wrapped read had.
/// Only that row reads those ghosts, and they belong to the other phase's
/// arrays, so tiling and thread splits stay race-free unchanged.
void update_comp_rows(grid::FieldSet& fs, Comp comp, int x0, int x1, int y0, int y1, int k);

/// Offset in complex cells of a component's shifted partner read.
std::ptrdiff_t shift_offset(const grid::Layout& layout, Comp comp);

}  // namespace emwd::kernels
