// The dispatched row kernel against the scalar reference loop, bit for bit
// (paper Sec. VI SIMD item).  On a CPU with AVX2, update_row() runs the AVX2
// body, so these comparisons pin that body to update_row_scalar().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/update.hpp"
#include "util/rng.hpp"

namespace {

using namespace emwd;
using kernels::RowArgs;

/// Magnitudes 1e-5..1e5 of either sign, with one value in sixteen replaced
/// by ±0, a subnormal, the smallest normal, ±inf or NaN.
double mixed_value(util::Xoshiro256& rng) {
  const double sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0 : 1.0;
  const double u = rng.uniform(0.0, 1.0);
  if (u >= 1.0 / 16) return sign * std::pow(10.0, rng.uniform(-5.0, 5.0));
  switch (static_cast<int>(u * 80.0)) {  // five specials, 1/80 each
    case 0: return sign * 0.0;
    case 1: return sign * std::numeric_limits<double>::denorm_min() * rng.uniform(1.0, 1e6);
    case 2: return sign * std::numeric_limits<double>::min();
    case 3: return sign * std::numeric_limits<double>::infinity();
    default: return std::numeric_limits<double>::quiet_NaN();
  }
}

struct RowData {
  std::vector<double> x, t, c, src, a, b;
  int n;

  RowData(int cells, std::uint64_t seed) : n(cells) {
    util::Xoshiro256 rng(seed);
    auto fill = [&](std::vector<double>& v, int len) {
      v.resize(static_cast<std::size_t>(len));
      for (auto& e : v) e = mixed_value(rng);
    };
    fill(x, 2 * n);
    fill(t, 2 * n);
    fill(c, 2 * n);
    fill(src, 2 * n);
    fill(a, 2 * 3 * n);  // partners: the row plus n cells either side
    fill(b, 2 * 3 * n);
  }

  RowArgs args(std::vector<double>& xbuf, std::ptrdiff_t shift, double ds,
               bool with_src) {
    RowArgs g;
    g.x = xbuf.data();
    g.t = t.data();
    g.c = c.data();
    g.src = with_src ? src.data() : nullptr;
    g.a = a.data() + 2 * n;
    g.b = b.data() + 2 * n;
    g.shift = shift;
    g.ds = ds;
    g.n = n;
    return g;
  }
};

/// Bitwise equality of doubles, except that any two NaNs count as equal.
bool same_bits(double u, double v) {
  if (std::isnan(u) && std::isnan(v)) return true;
  return std::memcmp(&u, &v, sizeof(double)) == 0;
}

TEST(RowKernel, IsaNamesTheDispatchedBody) {
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_STREQ(kernels::row_isa(), __builtin_cpu_supports("avx2") ? "avx2" : "scalar");
#else
  EXPECT_STREQ(kernels::row_isa(), "scalar");
#endif
}

TEST(RowKernel, Avx2BodyIsBitExactWithScalar) {
  if (std::strcmp(kernels::row_isa(), "avx2") != 0) {
    GTEST_SKIP() << "no AVX2 on this CPU; update_row is the scalar loop";
  }
  // Even and odd cell counts around the two-cell vector width, both shift
  // directions at distance 1 and n, both diff signs, both source variants.
  long compared = 0, finite = 0;
  for (int n : {1, 2, 3, 8, 15, 16, 17, 24, 64, 128, 129}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      RowData d(n, seed * 1000 + static_cast<std::uint64_t>(n));
      const std::ptrdiff_t nn = n;
      for (std::ptrdiff_t shift : {std::ptrdiff_t{-1}, std::ptrdiff_t{1}, -nn, nn}) {
        for (double ds : {+1.0, -1.0}) {
          for (bool with_src : {true, false}) {
            std::vector<double> x_ref = d.x;
            std::vector<double> x_got = d.x;
            kernels::update_row_scalar(d.args(x_ref, shift, ds, with_src));
            kernels::update_row(d.args(x_got, shift, ds, with_src));
            for (int i = 0; i < 2 * n; ++i) {
              const double ref = x_ref[static_cast<std::size_t>(i)];
              const double got = x_got[static_cast<std::size_t>(i)];
              ++compared;
              finite += std::isfinite(ref) ? 1 : 0;
              ASSERT_TRUE(same_bits(got, ref))
                  << "n=" << n << " seed=" << seed << " shift=" << shift << " ds=" << ds
                  << " src=" << with_src << " i=" << i << ": " << got << " vs " << ref;
            }
          }
        }
      }
    }
  }
  // The specials must not have turned the comparison into NaN == NaN.
  EXPECT_GT(finite, compared / 4) << finite << " finite of " << compared;
}

/// A class-indexed row: 256-entry t and c tables of mixed values and a
/// random class per cell.
struct IndexedRow {
  RowData d;
  std::vector<double> t, c;
  std::vector<std::uint8_t> cls;

  IndexedRow(int cells, std::uint64_t seed) : d(cells, seed) {
    util::Xoshiro256 rng(seed ^ 0x5eedull);
    t.resize(2 * 256);
    c.resize(2 * 256);
    for (auto& e : t) e = mixed_value(rng);
    for (auto& e : c) e = mixed_value(rng);
    cls.resize(static_cast<std::size_t>(cells));
    for (auto& k : cls) k = static_cast<std::uint8_t>(rng.below(256));
  }

  RowArgs args(std::vector<double>& xbuf, std::ptrdiff_t shift, double ds, bool with_src) {
    RowArgs g = d.args(xbuf, shift, ds, with_src);
    g.t = t.data();
    g.c = c.data();
    g.cls = cls.data();
    return g;
  }

  /// The same row with the table entries expanded per cell (dense form).
  RowArgs dense_args(std::vector<double>& xbuf, std::ptrdiff_t shift, double ds,
                     bool with_src) {
    for (std::size_t i = 0; i < cls.size(); ++i) {
      for (int h = 0; h < 2; ++h) {
        d.t[2 * i + h] = t[2 * cls[i] + h];
        d.c[2 * i + h] = c[2 * cls[i] + h];
      }
    }
    return d.args(xbuf, shift, ds, with_src);
  }
};

TEST(RowKernel, ClassIndexedRowsAreBitExact) {
  // The AVX2 body against the scalar loop on class-indexed rows, and both
  // against the dense form on the expanded tables: one loop, two forms.
  const bool avx2 = std::strcmp(kernels::row_isa(), "avx2") == 0;
  long compared = 0, finite = 0;
  for (int n : {1, 2, 3, 17, 1024}) {
    for (std::uint64_t seed : {1ull, 2ull}) {
      IndexedRow row(n, seed * 7919 + static_cast<std::uint64_t>(n));
      const std::ptrdiff_t nn = n;
      for (std::ptrdiff_t shift : {std::ptrdiff_t{-1}, nn}) {
        for (double ds : {+1.0, -1.0}) {
          for (bool with_src : {true, false}) {
            std::vector<double> x_ref = row.d.x, x_got = row.d.x, x_dense = row.d.x;
            kernels::update_row_scalar(row.args(x_ref, shift, ds, with_src));
            kernels::update_row(row.args(x_got, shift, ds, with_src));
            kernels::update_row_scalar(row.dense_args(x_dense, shift, ds, with_src));
            for (int i = 0; i < 2 * n; ++i) {
              const auto at = static_cast<std::size_t>(i);
              ++compared;
              finite += std::isfinite(x_ref[at]) ? 1 : 0;
              ASSERT_TRUE(same_bits(x_dense[at], x_ref[at]))
                  << "dense vs indexed: n=" << n << " seed=" << seed << " i=" << i;
              if (avx2) {
                ASSERT_TRUE(same_bits(x_got[at], x_ref[at]))
                    << "n=" << n << " seed=" << seed << " shift=" << shift << " ds=" << ds
                    << " src=" << with_src << " i=" << i << ": " << x_got[at] << " vs "
                    << x_ref[at];
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(finite, compared / 4) << finite << " finite of " << compared;
  if (!avx2) GTEST_SKIP() << "no AVX2 on this CPU; only the scalar forms were compared";
}

}  // namespace
