#include "kernels/update.hpp"

#include <complex>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define EMWD_ROW_AVX2 1
#include <immintrin.h>
#endif

namespace emwd::kernels {
namespace {

/// Core loop shared by the four variants, from double i0 (complex cell
/// i0/2) to the end of the row.  `HasSrc` and `Indexed` are compile-time
/// switches, so the no-source kernel carries no dead loads (paper Listing 2)
/// and the dense form no class loads.  Indexed, cell p reads its t and c at
/// table entry cls[p]; dense, at p.
template <bool HasSrc, bool Indexed>
inline void update_row_impl(const RowArgs& g, int i0) noexcept {
  double* __restrict x = g.x;
  const double* __restrict t = g.t;
  const double* __restrict c = g.c;
  const std::uint8_t* __restrict cls = g.cls;
  const double* __restrict src = g.src;
  const double* __restrict a = g.a;
  const double* __restrict b = g.b;
  const double* __restrict as = g.a + 2 * g.shift;
  const double* __restrict bs = g.b + 2 * g.shift;
  const double ds = g.ds;
  const int n2 = 2 * g.n;

  for (int i = i0; i < n2; i += 2) {
    const std::size_t e = Indexed ? 2 * std::size_t{cls[i / 2]} : static_cast<std::size_t>(i);
    // Difference of the two partner split parts, base minus shifted (signed).
    const double re = ds * (a[i] - as[i] + b[i] - bs[i]);
    const double im = ds * (a[i + 1] - as[i + 1] + b[i + 1] - bs[i + 1]);
    // Complex X*t - c*(re + i*im) (+ Src), exactly as the paper's listings.
    double xr = x[i] * t[e] - x[i + 1] * t[e + 1] - c[e] * re + c[e + 1] * im;
    double xi = x[i] * t[e + 1] + x[i + 1] * t[e] - c[e] * im - c[e + 1] * re;
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
/// Indexed, the two cells' table entries come in as two 128-bit loads.
template <bool HasSrc, bool Indexed>
__attribute__((target("avx2"))) void row_avx2(const RowArgs& g) noexcept {
  double* __restrict x = g.x;
  const double* __restrict t = g.t;
  const double* __restrict c = g.c;
  const std::uint8_t* __restrict cls = g.cls;
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
    __m256d vt, vc;
    if constexpr (Indexed) {
      const std::size_t e0 = 2 * std::size_t{cls[0]};
      const std::size_t e1 = 2 * std::size_t{cls[1]};
      cls += 2;
      vt = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(t + e0)),
                                _mm_loadu_pd(t + e1), 1);
      vc = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(c + e0)),
                                _mm_loadu_pd(c + e1), 1);
    } else {
      vt = _mm256_loadu_pd(t + i);
      vc = _mm256_loadu_pd(c + i);
    }
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
  update_row_impl<HasSrc, Indexed>(g, vec_end);  // the odd cell, if any
}

__attribute__((target("avx2"))) void run_avx2(const RowArgs& g) noexcept {
  if (g.cls != nullptr) {
    g.src != nullptr ? row_avx2<true, true>(g) : row_avx2<false, true>(g);
  } else {
    g.src != nullptr ? row_avx2<true, false>(g) : row_avx2<false, false>(g);
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
  if (args.cls != nullptr) {
    args.src != nullptr ? update_row_impl<true, true>(args, 0)
                        : update_row_impl<false, true>(args, 0);
  } else {
    args.src != nullptr ? update_row_impl<true, false>(args, 0)
                        : update_row_impl<false, false>(args, 0);
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
  const std::complex<double> t = fs.t_at(comp, i, j, k);
  const std::complex<double> c = fs.c_at(comp, i, j, k);
  const double* a = fs.field(ci.partner_a).data();
  const double* b = fs.field(ci.partner_b).data();
  const double ds = static_cast<double>(ci.diff_sign);

  const double re = ds * (a[p] - a[q] + b[p] - b[q]);
  const double im = ds * (a[p + 1] - a[q + 1] + b[p + 1] - b[q + 1]);
  double xr = x[p] * t.real() - x[p + 1] * t.imag() - c.real() * re + c.imag() * im;
  double xi = x[p] * t.imag() + x[p + 1] * t.real() - c.real() * im - c.imag() * re;
  if (ci.src_index >= 0) {
    const std::complex<double> src = fs.source_at(ci.src_index, i, j, k);
    xr += src.real();
    xi += src.imag();
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

  // Cells [i0, i1) of the row, all reading table slice `slice`.
  const auto run = [&](int i0, int i1, int slice) {
    const std::size_t base = layout.at(i0, j, k);
    RowArgs args;
    args.x = fs.field(comp).data() + 2 * base;
    args.t = fs.t_slice(comp, slice);
    args.c = fs.c_slice(comp, slice);
    args.src = ci.src_index >= 0 ? fs.source_row(ci.src_index, j, k) + 2 * i0 : nullptr;
    args.a = fs.field(ci.partner_a).data() + 2 * base;
    args.b = fs.field(ci.partner_b).data() + 2 * base;
    args.shift = shift_offset(layout, comp);
    args.ds = static_cast<double>(ci.diff_sign);
    args.n = i1 - i0;
    args.cls = fs.classes() + base;
    update_row(args);
  };
  if (ci.axis != Axis::X || fs.num_slices(Axis::X) == 1) {
    run(x0, x1, fs.slice(ci.axis, axis_position(ci.axis, x0, j, k)));
    return;
  }
  // Several x slices: one run per stretch of equal slice (each shell cell,
  // the interior).
  for (int i0 = x0; i0 < x1;) {
    const int slice = fs.slice(Axis::X, i0);
    int i1 = i0 + 1;
    while (i1 < x1 && fs.slice(Axis::X, i1) == slice) ++i1;
    run(i0, i1, slice);
    i0 = i1;
  }
}

}  // namespace emwd::kernels
