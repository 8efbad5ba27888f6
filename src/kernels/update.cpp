#include "kernels/update.hpp"

#include <cstring>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define EMWD_ROW_X86 1
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

#ifdef EMWD_ROW_X86
/// Where a vector body's (t, c) come from (update.hpp).
enum class Coeffs { Dense, Indexed, Uniform };

/// Every class byte of the row equals the first.
bool uniform_classes(const std::uint8_t* cls, int n) noexcept {
  if (n <= 0) return false;
  const std::uint64_t first = 0x0101010101010101ull * cls[0];
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, cls + i, sizeof word);
    if (word != first) return false;
  }
  for (; i < n; ++i) {
    if (cls[i] != cls[0]) return false;
  }
  return true;
}

/// Runs Row<HasSrc, C>::run for the row's source and coefficient form.
template <template <bool, Coeffs> class Row>
void run_body(const RowArgs& g) noexcept {
  const bool src = g.src != nullptr;
  if (g.cls == nullptr) {
    src ? Row<true, Coeffs::Dense>::run(g) : Row<false, Coeffs::Dense>::run(g);
  } else if (uniform_classes(g.cls, g.n)) {
    src ? Row<true, Coeffs::Uniform>::run(g) : Row<false, Coeffs::Uniform>::run(g);
  } else {
    src ? Row<true, Coeffs::Indexed>::run(g) : Row<false, Coeffs::Indexed>::run(g);
  }
}

/// Two complex cells per vector, lanes [re0 im0 re1 im1], in the signed
/// form of update.hpp: x*tr + swap(x)*ti - cr*d + swap(d)*ci with
/// tr = [t.re t.re], ti = [-t.im t.im], cr = [c.re c.re], ci = [c.im -c.im].
/// A uniform row builds the four once; the others per vector.
template <bool HasSrc, Coeffs C>
struct Avx2Row {
  __attribute__((target("avx2"))) static void run(const RowArgs& g) noexcept {
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
    const __m256d neg_re = _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
    const __m256d neg_im = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
    const int n2 = 2 * g.n;
    const int vec_end = n2 & ~3;

    __m256d tr{}, ti{}, cr{}, ci{};
    if constexpr (C == Coeffs::Uniform) {
      const std::size_t e = 2 * std::size_t{cls[0]};
      tr = _mm256_set1_pd(t[e]);
      ti = _mm256_set_pd(t[e + 1], -t[e + 1], t[e + 1], -t[e + 1]);
      cr = _mm256_set1_pd(c[e]);
      ci = _mm256_set_pd(-c[e + 1], c[e + 1], -c[e + 1], c[e + 1]);
    }
    for (int i = 0; i < vec_end; i += 4) {
      // d = [re im re im] = ds*(((A - As) + B) - Bs).
      const __m256d d = _mm256_mul_pd(
          ds, _mm256_sub_pd(_mm256_add_pd(_mm256_sub_pd(_mm256_loadu_pd(a + i),
                                                        _mm256_loadu_pd(as + i)),
                                          _mm256_loadu_pd(b + i)),
                            _mm256_loadu_pd(bs + i)));
      const __m256d vx = _mm256_loadu_pd(x + i);
      if constexpr (C != Coeffs::Uniform) {
        __m256d vt, vc;
        if constexpr (C == Coeffs::Indexed) {
          const std::size_t e0 = 2 * std::size_t{cls[i / 2]};
          const std::size_t e1 = 2 * std::size_t{cls[i / 2 + 1]};
          vt = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(t + e0)),
                                    _mm_loadu_pd(t + e1), 1);
          vc = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(c + e0)),
                                    _mm_loadu_pd(c + e1), 1);
        } else {
          vt = _mm256_loadu_pd(t + i);
          vc = _mm256_loadu_pd(c + i);
        }
        tr = _mm256_movedup_pd(vt);
        ti = _mm256_xor_pd(_mm256_permute_pd(vt, 0xF), neg_re);
        cr = _mm256_movedup_pd(vc);
        ci = _mm256_xor_pd(_mm256_permute_pd(vc, 0xF), neg_im);
      }
      __m256d acc = _mm256_add_pd(_mm256_mul_pd(vx, tr),
                                  _mm256_mul_pd(_mm256_permute_pd(vx, 0x5), ti));
      acc = _mm256_sub_pd(acc, _mm256_mul_pd(cr, d));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_permute_pd(d, 0x5), ci));
      if constexpr (HasSrc) acc = _mm256_add_pd(acc, _mm256_loadu_pd(src + i));
      _mm256_storeu_pd(x + i, acc);
    }
    update_row_impl<HasSrc, C != Coeffs::Dense>(g, vec_end);  // the odd cell, if any
  }
};

/// Four complex cells per vector in Avx2Row's signed form.  The last
/// partial vector runs masked: masked-off lanes are neither loaded nor
/// stored, and an indexed tail reads only the classes of its own cells.
template <bool HasSrc, Coeffs C>
struct Avx512Row {
  __attribute__((target("avx512f"))) static void run(const RowArgs& args) noexcept {
    // A local copy: stores to the row cannot alias it, so its pointers and
    // ds stay in registers across the loop.
    const RowArgs g = args;
    const int n2 = 2 * g.n;
    const int vec_end = n2 & ~7;
    const Coefficients k(g);
    for (int i = 0; i < vec_end; i += 8) cells<false>(g, k, i, 0xFF);
    if (vec_end < n2) {
      cells<true>(g, k, vec_end, static_cast<__mmask8>((1u << (n2 - vec_end)) - 1));
    }
  }

 private:
  /// tr, ti, cr, ci of update.hpp's signed form; a uniform row's, once.
  struct Coefficients {
    __m512d tr{}, ti{}, cr{}, ci{};
    __attribute__((target("avx512f"))) explicit Coefficients(const RowArgs& g) noexcept {
      if constexpr (C == Coeffs::Uniform) {
        const std::size_t e = 2 * std::size_t{g.cls[0]};
        const double t_im = g.t[e + 1], c_im = g.c[e + 1];
        tr = _mm512_set1_pd(g.t[e]);
        ti = _mm512_set_pd(t_im, -t_im, t_im, -t_im, t_im, -t_im, t_im, -t_im);
        cr = _mm512_set1_pd(g.c[e]);
        ci = _mm512_set_pd(-c_im, c_im, -c_im, c_im, -c_im, c_im, -c_im, c_im);
      }
    }
  };

  // In-lane moves of complex pairs [re im].  GCC 12's unmasked forms of
  // these intrinsics seed an uninitialized vector that
  // -Wmaybe-uninitialized reports once inlined; the full-mask forms used
  // here and in entries() compile to the same instructions.
  __attribute__((target("avx512f"), always_inline)) static __m512d swap(__m512d v) {
    return _mm512_maskz_permute_pd(0xFF, v, 0x55);  // [im re]
  }
  __attribute__((target("avx512f"), always_inline)) static __m512d dup_re(__m512d v) {
    return _mm512_maskz_movedup_pd(0xFF, v);  // [re re]
  }
  __attribute__((target("avx512f"), always_inline)) static __m512d dup_im(__m512d v) {
    return _mm512_maskz_permute_pd(0xFF, v, 0xFF);  // [im im]
  }
  /// v with the sign bits of `sign` flipped.
  __attribute__((target("avx512f"), always_inline)) static __m512d flip(__m512d v,
                                                                         __m512i sign) {
    return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(v), sign));
  }

  /// Table entries e0..e3 as [re0 im0 .. re3 im3].
  __attribute__((target("avx512f"), always_inline)) static __m512d entries(
      const double* tab, std::size_t e0, std::size_t e1, std::size_t e2, std::size_t e3) {
    const __m256d lo = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(tab + e0)),
                                            _mm_loadu_pd(tab + e1), 1);
    const __m256d hi = _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(tab + e2)),
                                            _mm_loadu_pd(tab + e3), 1);
    return _mm512_maskz_insertf64x4(0xFF, _mm512_castpd256_pd512(lo), hi, 1);
  }

  template <bool Masked>
  __attribute__((target("avx512f"), always_inline)) static __m512d load(const double* p,
                                                                        __mmask8 m) {
    if constexpr (Masked) return _mm512_maskz_loadu_pd(m, p);
    return _mm512_loadu_pd(p);
  }

  /// The cells of doubles [i, i + 8) under mask m (all set unless Masked).
  template <bool Masked>
  __attribute__((target("avx512f"), always_inline)) static void cells(const RowArgs& g,
                                                                      const Coefficients& k,
                                                                      int i, __mmask8 m) {
    const std::ptrdiff_t s = 2 * g.shift;
    const __m512d d = _mm512_mul_pd(
        _mm512_set1_pd(g.ds),
        _mm512_sub_pd(_mm512_add_pd(_mm512_sub_pd(load<Masked>(g.a + i, m),
                                                  load<Masked>(g.a + s + i, m)),
                                    load<Masked>(g.b + i, m)),
                      load<Masked>(g.b + s + i, m)));
    const __m512d vx = load<Masked>(g.x + i, m);
    __m512d tr = k.tr, ti = k.ti, cr = k.cr, ci = k.ci;
    if constexpr (C != Coeffs::Uniform) {
      __m512d vt, vc;
      if constexpr (C == Coeffs::Indexed) {
        // A tail repeats its last cell's class for the masked-off cells.
        const int p = i / 2, last = p + (Masked ? __builtin_popcount(m) / 2 : 4) - 1;
        const auto entry = [&](int q) { return 2 * std::size_t{g.cls[q < last ? q : last]}; };
        const std::size_t e0 = entry(p), e1 = entry(p + 1), e2 = entry(p + 2),
                          e3 = entry(p + 3);
        vt = entries(g.t, e0, e1, e2, e3);
        vc = entries(g.c, e0, e1, e2, e3);
      } else {
        vt = load<Masked>(g.t + i, m);
        vc = load<Masked>(g.c + i, m);
      }
      const __m512i neg_re = _mm512_set_epi64(0, INT64_MIN, 0, INT64_MIN, 0, INT64_MIN, 0,
                                              INT64_MIN);
      const __m512i neg_im = _mm512_set_epi64(INT64_MIN, 0, INT64_MIN, 0, INT64_MIN, 0,
                                              INT64_MIN, 0);
      tr = dup_re(vt);
      ti = flip(dup_im(vt), neg_re);
      cr = dup_re(vc);
      ci = flip(dup_im(vc), neg_im);
    }
    __m512d acc = _mm512_add_pd(_mm512_mul_pd(vx, tr), _mm512_mul_pd(swap(vx), ti));
    acc = _mm512_sub_pd(acc, _mm512_mul_pd(cr, d));
    acc = _mm512_add_pd(acc, _mm512_mul_pd(swap(d), ci));
    if constexpr (HasSrc) acc = _mm512_add_pd(acc, load<Masked>(g.src + i, m));
    if constexpr (Masked) {
      _mm512_mask_storeu_pd(g.x + i, m, acc);
    } else {
      _mm512_storeu_pd(g.x + i, acc);
    }
  }
};
#endif

/// Resolved on first use, so no static initializer depends on it.
const RowBody& row_kernel() noexcept {
  static const RowBody body = row_bodies().back();
  return body;
}

}  // namespace

std::vector<RowBody> row_bodies() {
  std::vector<RowBody> bodies{{"scalar", update_row_scalar}};
#ifdef EMWD_ROW_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) bodies.push_back({"avx2", run_body<Avx2Row>});
  if (__builtin_cpu_supports("avx512f")) bodies.push_back({"avx512", run_body<Avx512Row>});
#endif
  return bodies;
}

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

void update_comp_rows(grid::FieldSet& fs, Comp comp, int x0, int x1, int y0, int y1, int k) {
  if (x1 <= x0 || y1 <= y0) return;
  const CompInfo& ci = info(comp);
  const grid::Layout& layout = fs.layout();
  const int nx = layout.nx();
  const auto body = row_kernel().run;

  double* const x = fs.field(comp).data();
  double* const a = fs.field(ci.partner_a).data();
  double* const b = fs.field(ci.partner_b).data();
  const std::uint8_t* const cls = fs.classes();

  // Periodic x: the ghost an x-shift row reads at its wrapped end, and the
  // cell it mirrors, in complex cells from the row's x = 0.  Ĥ rows read
  // x-1 (x = -1 mirrors nx-1), Ê rows x+1 (x = nx mirrors 0).
  const bool wrap = fs.x_boundary() == grid::XBoundary::Periodic && ci.axis == Axis::X &&
                    (ci.shift < 0 ? x0 == 0 : x1 == nx);
  const std::ptrdiff_t ghost = ci.shift < 0 ? -1 : nx;
  const std::ptrdiff_t mirror = ci.shift < 0 ? nx - 1 : 0;

  // One table slice for the run unless y or x has several along the axis.
  const bool y_slices = ci.axis == Axis::Y && fs.num_slices(Axis::Y) > 1;
  const bool x_slices = ci.axis == Axis::X && fs.num_slices(Axis::X) > 1;
  const int slice = fs.slice(ci.axis, axis_position(ci.axis, x0, y0, k));

  RowArgs g;
  g.t = fs.t_slice(comp, slice);
  g.c = fs.c_slice(comp, slice);
  g.shift = shift_offset(layout, comp);
  g.ds = static_cast<double>(ci.diff_sign);
  g.n = x1 - x0;
  for (int j = y0; j < y1; ++j) {
    const std::size_t row = layout.at(0, j, k);
    if (wrap) {
      for (double* p : {a + 2 * row, b + 2 * row}) {
        p[2 * ghost] = p[2 * mirror];
        p[2 * ghost + 1] = p[2 * mirror + 1];
      }
    }
    if (y_slices) {
      g.t = fs.t_slice(comp, fs.slice(Axis::Y, j));
      g.c = fs.c_slice(comp, fs.slice(Axis::Y, j));
    }
    const std::size_t base = row + x0;
    g.x = x + 2 * base;
    g.a = a + 2 * base;
    g.b = b + 2 * base;
    g.cls = cls + base;
    g.src = ci.src_index >= 0 ? fs.source_row(ci.src_index, j, k) + 2 * x0 : nullptr;
    if (!x_slices) {
      body(g);
      continue;
    }
    // Several x slices: one call per stretch of equal slice (each shell
    // cell, the interior).
    for (int i0 = x0; i0 < x1;) {
      const int s = fs.slice(Axis::X, i0);
      int i1 = i0 + 1;
      while (i1 < x1 && fs.slice(Axis::X, i1) == s) ++i1;
      const int skip = i0 - x0;
      RowArgs part = g;
      part.x += 2 * skip;
      part.a += 2 * skip;
      part.b += 2 * skip;
      part.cls += skip;
      if (part.src != nullptr) part.src += 2 * skip;
      part.t = fs.t_slice(comp, s);
      part.c = fs.c_slice(comp, s);
      part.n = i1 - i0;
      body(part);
      i0 = i1;
    }
  }
}

}  // namespace emwd::kernels
