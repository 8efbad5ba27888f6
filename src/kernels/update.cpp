#include "kernels/update.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define EMWD_ROW_AVX2 1
#include <immintrin.h>
#endif

namespace emwd::kernels {
namespace {

/// Core loop shared by the src / no-src variants, from double i0 (complex
/// cell i0/2) to the end of the row.  `HasSrc` is a compile-time switch so
/// the no-source kernel carries no dead loads (paper Listing 2).
template <bool HasSrc>
inline void update_row_impl(const RowArgs& g, int i0) noexcept {
  double* __restrict x = g.x;
  const double* __restrict t = g.t;
  const double* __restrict c = g.c;
  const double* __restrict src = g.src;
  const double* __restrict a = g.a;
  const double* __restrict b = g.b;
  const double* __restrict as = g.a + 2 * g.shift;
  const double* __restrict bs = g.b + 2 * g.shift;
  const double ds = g.ds;
  const int n2 = 2 * g.n;

  for (int i = i0; i < n2; i += 2) {
    // Difference of the two partner split parts, base minus shifted (signed).
    const double re = ds * (a[i] - as[i] + b[i] - bs[i]);
    const double im = ds * (a[i + 1] - as[i + 1] + b[i + 1] - bs[i + 1]);
    // Complex X*t - c*(re + i*im) (+ Src), exactly as the paper's listings.
    double xr = x[i] * t[i] - x[i + 1] * t[i + 1] - c[i] * re + c[i + 1] * im;
    double xi = x[i] * t[i + 1] + x[i + 1] * t[i] - c[i] * im - c[i + 1] * re;
    if constexpr (HasSrc) {
      xr += src[i];
      xi += src[i + 1];
    }
    x[i] = xr;
    x[i + 1] = xi;
  }
}

#ifdef EMWD_ROW_AVX2
/// Two complex cells per vector, lanes [re0 im0 re1 im1], each lane computed
/// in update_row_impl's evaluation order so the result is bit-identical.
template <bool HasSrc>
__attribute__((target("avx2"))) void row_avx2(const RowArgs& g) noexcept {
  double* __restrict x = g.x;
  const double* __restrict t = g.t;
  const double* __restrict c = g.c;
  const double* __restrict src = g.src;
  const double* __restrict a = g.a;
  const double* __restrict b = g.b;
  const double* __restrict as = g.a + 2 * g.shift;
  const double* __restrict bs = g.b + 2 * g.shift;
  const __m256d ds = _mm256_set1_pd(g.ds);
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const int n2 = 2 * g.n;
  const int vec_end = n2 & ~3;

  for (int i = 0; i < vec_end; i += 4) {
    // d = [re im re im] = ds*(((A - As) + B) - Bs).
    const __m256d d = _mm256_mul_pd(
        ds, _mm256_sub_pd(_mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                      _mm256_loadu_pd(as + i)),
                                        _mm256_loadu_pd(b + i)),
                          _mm256_loadu_pd(bs + i)));
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vt = _mm256_loadu_pd(t + i);
    const __m256d vc = _mm256_loadu_pd(c + i);
    // [x.re*t.re - x.im*t.im, x.re*t.im + x.im*t.re]
    __m256d acc = _mm256_addsub_pd(
        _mm256_mul_pd(_mm256_movedup_pd(vx), vt),
        _mm256_mul_pd(_mm256_permute_pd(vx, 0xF), _mm256_permute_pd(vt, 0x5)));
    // - [c.re*re, c.re*im]
    acc = _mm256_sub_pd(acc, _mm256_mul_pd(_mm256_movedup_pd(vc), d));
    // + [c.im*im, -c.im*re]: addsub of the negated product.
    acc = _mm256_addsub_pd(
        acc, _mm256_xor_pd(_mm256_mul_pd(_mm256_permute_pd(vc, 0xF),
                                         _mm256_permute_pd(d, 0x5)),
                           sign_bit));
    if constexpr (HasSrc) acc = _mm256_add_pd(acc, _mm256_loadu_pd(src + i));
    _mm256_storeu_pd(x + i, acc);
  }
  update_row_impl<HasSrc>(g, vec_end);  // the odd cell, if any
}

__attribute__((target("avx2"))) void run_avx2(const RowArgs& g) noexcept {
  if (g.src != nullptr) {
    row_avx2<true>(g);
  } else {
    row_avx2<false>(g);
  }
}
#endif

struct RowKernel {
  void (*run)(const RowArgs&) noexcept;
  const char* isa;
};

/// Resolved on first use, so no static initializer depends on it.
const RowKernel& row_kernel() noexcept {
  static const RowKernel kernel = [] {
#ifdef EMWD_ROW_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return RowKernel{run_avx2, "avx2"};
#endif
    return RowKernel{update_row_scalar, "scalar"};
  }();
  return kernel;
}

}  // namespace

void update_row(const RowArgs& args) noexcept { row_kernel().run(args); }

const char* row_isa() noexcept { return row_kernel().isa; }

void update_row_scalar(const RowArgs& args) noexcept {
  if (args.src != nullptr) {
    update_row_impl<true>(args, 0);
  } else {
    update_row_impl<false>(args, 0);
  }
}

std::ptrdiff_t shift_offset(const grid::Layout& layout, Comp comp) {
  const CompInfo& ci = info(comp);
  switch (ci.axis) {
    case Axis::X:
      return ci.shift * layout.stride_x();
    case Axis::Y:
      return ci.shift * layout.stride_y();
    case Axis::Z:
    default:
      return ci.shift * layout.stride_z();
  }
}

void update_cell_wrapped(grid::FieldSet& fs, Comp comp, int i, int i_partner, int j,
                         int k) {
  const CompInfo& ci = info(comp);
  const grid::Layout& layout = fs.layout();
  const std::size_t p = 2 * layout.at(i, j, k);
  const std::size_t q = 2 * layout.at(i_partner, j, k);

  double* x = fs.field(comp).data();
  const double* t = fs.coeff_t(comp).data();
  const double* c = fs.coeff_c(comp).data();
  const grid::Field* srcf = fs.source_for(comp);
  const double* a = fs.field(ci.partner_a).data();
  const double* b = fs.field(ci.partner_b).data();
  const double ds = static_cast<double>(ci.diff_sign);

  const double re = ds * (a[p] - a[q] + b[p] - b[q]);
  const double im = ds * (a[p + 1] - a[q + 1] + b[p + 1] - b[q + 1]);
  double xr = x[p] * t[p] - x[p + 1] * t[p + 1] - c[p] * re + c[p + 1] * im;
  double xi = x[p] * t[p + 1] + x[p + 1] * t[p] - c[p] * im - c[p + 1] * re;
  if (srcf != nullptr) {
    xr += srcf->data()[p];
    xi += srcf->data()[p + 1];
  }
  x[p] = xr;
  x[p + 1] = xi;
}

void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k) {
  if (x1 <= x0) return;
  const CompInfo& ci = info(comp);
  const grid::Layout& layout = fs.layout();
  const int nx = layout.nx();

  // Periodic x: peel the wrap-around cell of the x-shift components.  The
  // Ĥ components read x-1 (wraps at x = 0 to nx-1); the Ê components read
  // x+1 (wraps at x = nx-1 to 0).
  if (fs.x_boundary() == grid::XBoundary::Periodic && ci.axis == Axis::X) {
    if (ci.shift < 0 && x0 == 0) {
      update_cell_wrapped(fs, comp, 0, nx - 1, j, k);
      ++x0;
    } else if (ci.shift > 0 && x1 == nx) {
      update_cell_wrapped(fs, comp, nx - 1, 0, j, k);
      --x1;
    }
    if (x1 <= x0) return;
  }

  const std::size_t base = layout.at(x0, j, k);

  RowArgs args;
  args.x = fs.field(comp).data() + 2 * base;
  args.t = fs.coeff_t(comp).data() + 2 * base;
  args.c = fs.coeff_c(comp).data() + 2 * base;
  const grid::Field* src = fs.source_for(comp);
  args.src = src ? src->data() + 2 * base : nullptr;
  args.a = fs.field(ci.partner_a).data() + 2 * base;
  args.b = fs.field(ci.partner_b).data() + 2 * base;
  args.shift = shift_offset(layout, comp);
  args.ds = static_cast<double>(ci.diff_sign);
  args.n = x1 - x0;
  update_row(args);
}

}  // namespace emwd::kernels
