// The THIIM component-update kernels.
//
// update_row() is the library's innermost loop and its only row-kernel
// entry point: one x-row of one split component, in exactly the
// complex-arithmetic form of the paper's Listings 1 and 2 (interleaved re/im
// doubles, read-modify-write of the component, two partner reads at base and
// shifted index, complex t and c coefficients, optional source term).
//
// The paper streams t and c as per-cell arrays.  Engines instead pass a
// row of uint8 coefficient classes and a table slice: cell i reads t and c
// from entry cls[i], so a row streams 1 byte of coefficient index per cell
// instead of 32 (grid/fieldset.hpp).  Without a class row the kernel reads
// per-cell t and c, the dense form the row probes time; both forms are the
// same loop under a compile-time switch.
//
// update_row() runs one of two bodies, chosen once per process: on x86 CPUs
// with AVX2, two complex cells per 256-bit vector (the paper's Sec. VI SIMD
// item); elsewhere the portable loop update_row_scalar().  row_isa() names
// the body that runs, and engines record it as EngineStats::kernel_isa.
//
// The two bodies are bit-exact, so every engine stays bitwise identical to
// the naive reference whichever body a CPU picks.  The scalar loop is the
// reference: the AVX2 body evaluates each output in the scalar loop's order,
// operand for operand, folding `+ c.im*im` into an addsub of the negated
// product (negation is exact).  Bit-exactness also needs the absence of
// fused multiply-adds: the AVX2 body is compiled for target "avx2" alone,
// never "fma" or a -march level that includes it, so no multiply can be
// fused into the add after it, and the build pins -ffp-contract=off for the
// scalar loop (CMakeLists.txt notes why -march flags with FMA stay out).
#pragma once

#include <cstddef>
#include <cstdint>

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

/// "avx2" or "scalar": the body update_row() runs on this CPU (a static
/// string, never dangles).
const char* row_isa() noexcept;

/// The portable loop; bit-for-bit what update_row() computes.
void update_row_scalar(const RowArgs& args) noexcept;

/// Convenience wrapper: updates component `comp` for the x-range [x0, x1)
/// of row (j, k) of `fs`.  Resolves arrays, table slice, shift offset and
/// diff sign from the component table; an x-axis row of a set with several
/// x slices runs once per run of equal slice.  Under XBoundary::Periodic,
/// the x-shift components peel the wrap-around cell (x = 0 for Ĥ, x = nx-1
/// for Ê) and read the partner values from the opposite domain edge — the
/// paper's Sec. VI scheme.  The wrapped reads target the *other* field's previous
/// half-step values, so tiling and thread splits stay race-free unchanged.
void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k);

/// One cell with an explicit partner-read x position (the peeled iteration).
void update_cell_wrapped(grid::FieldSet& fs, Comp comp, int i, int i_partner, int j,
                         int k);

/// Offset in complex cells of a component's shifted partner read.
std::ptrdiff_t shift_offset(const grid::Layout& layout, Comp comp);

}  // namespace emwd::kernels
