// Every row-kernel body this CPU can run against the scalar reference loop,
// bit for bit (paper Sec. VI SIMD item).  kernels::row_bodies() lists the
// bodies, so the AVX2 body is compared on an AVX-512 CPU too, and nothing
// here skips.  Rows come in the three coefficient forms a vector body
// distinguishes (dense, class-indexed with random classes, uniform) plus a
// uniform row broken by one cell, which must take the indexed form.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
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

/// How a row's cells find their (t, c).
enum class Form { Dense, Indexed, Uniform, UniformButOne };

const char* name(Form f) {
  switch (f) {
    case Form::Dense: return "dense";
    case Form::Indexed: return "indexed";
    case Form::Uniform: return "uniform";
    default: return "uniform-but-one";
  }
}

/// One row of mixed values: x, per-cell t and c, a source, partners with n
/// cells either side of the row, 256-entry t and c tables and a class per
/// cell in the pattern of `form`.
struct Row {
  int n;
  Form form;
  std::vector<double> x, t, c, src, a, b, table_t, table_c;
  std::vector<std::uint8_t> cls;

  Row(int cells, Form f, std::uint64_t seed) : n(cells), form(f) {
    util::Xoshiro256 rng(seed);
    const auto fill = [&](std::vector<double>& v, int len) {
      v.resize(static_cast<std::size_t>(len));
      for (auto& e : v) e = mixed_value(rng);
    };
    fill(x, 2 * n);
    fill(t, 2 * n);
    fill(c, 2 * n);
    fill(src, 2 * n);
    fill(a, 2 * 3 * n);
    fill(b, 2 * 3 * n);
    fill(table_t, 2 * 256);
    fill(table_c, 2 * 256);
    cls.resize(static_cast<std::size_t>(n));
    const auto one = static_cast<std::uint8_t>(rng.below(256));
    for (auto& k : cls) {
      k = form == Form::Indexed ? static_cast<std::uint8_t>(rng.below(256)) : one;
    }
    if (form == Form::UniformButOne && n > 1) {
      cls[rng.below(static_cast<std::uint64_t>(n))] = static_cast<std::uint8_t>(one ^ 1);
    }
  }

  RowArgs args(std::vector<double>& xbuf, std::ptrdiff_t shift, double ds,
               bool with_src) const {
    RowArgs g;
    g.x = xbuf.data();
    g.t = form == Form::Dense ? t.data() : table_t.data();
    g.c = form == Form::Dense ? c.data() : table_c.data();
    g.src = with_src ? src.data() : nullptr;
    g.a = a.data() + 2 * n;
    g.b = b.data() + 2 * n;
    g.shift = shift;
    g.ds = ds;
    g.n = n;
    g.cls = form == Form::Dense ? nullptr : cls.data();
    return g;
  }

  /// The class form's row with its table entries expanded per cell.
  Row expanded() const {
    Row d = *this;
    d.form = Form::Dense;
    for (std::size_t i = 0; i < cls.size(); ++i) {
      for (int h = 0; h < 2; ++h) {
        d.t[2 * i + h] = table_t[2 * cls[i] + h];
        d.c[2 * i + h] = table_c[2 * cls[i] + h];
      }
    }
    return d;
  }
};

/// Bitwise equality of doubles, except that any two NaNs count as equal.
bool same_bits(double u, double v) {
  if (std::isnan(u) && std::isnan(v)) return true;
  return std::memcmp(&u, &v, sizeof(double)) == 0;
}

/// Cell counts around every vector width (1..33), and long rows.
std::vector<int> cell_counts() {
  std::vector<int> ns;
  for (int n = 1; n <= 33; ++n) ns.push_back(n);
  for (int n : {64, 128, 129, 1024}) ns.push_back(n);
  return ns;
}

/// Partner shifts at distance 1, n and n - 1 (the periodic wrap cell's)
/// in both directions.
std::vector<std::ptrdiff_t> shifts(int n) {
  const std::ptrdiff_t nn = n;
  return {-1, 1, -nn, nn, -(nn - 1), nn - 1};
}

TEST(RowKernel, IsaNamesTheDispatchedBody) {
  std::vector<std::string> expected{"scalar"};
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) expected.push_back("avx2");
  if (__builtin_cpu_supports("avx512f")) expected.push_back("avx512");
#endif
  const std::vector<kernels::RowBody> bodies = kernels::row_bodies();
  ASSERT_EQ(bodies.size(), expected.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    EXPECT_EQ(bodies[i].isa, expected[i]);
    EXPECT_NE(bodies[i].run, nullptr);
  }
  // Widest first: avx512 over avx2 over scalar.
  EXPECT_EQ(kernels::row_isa(), expected.back());
  EXPECT_EQ(bodies.front().run, &kernels::update_row_scalar);
}

TEST(RowKernel, EveryBodyIsBitExactWithScalar) {
  for (const kernels::RowBody& body : kernels::row_bodies()) {
    long compared = 0, finite = 0;
    for (Form form : {Form::Dense, Form::Indexed, Form::Uniform, Form::UniformButOne}) {
      for (int n : cell_counts()) {
        const Row row(n, form, 7919 * static_cast<std::uint64_t>(n) +
                                   static_cast<std::uint64_t>(form));
        for (std::ptrdiff_t shift : shifts(n)) {
          for (double ds : {+1.0, -1.0}) {
            for (bool with_src : {true, false}) {
              std::vector<double> x_ref = row.x, x_got = row.x;
              kernels::update_row_scalar(row.args(x_ref, shift, ds, with_src));
              body.run(row.args(x_got, shift, ds, with_src));
              for (int i = 0; i < 2 * n; ++i) {
                const auto at = static_cast<std::size_t>(i);
                ++compared;
                finite += std::isfinite(x_ref[at]) ? 1 : 0;
                ASSERT_TRUE(same_bits(x_got[at], x_ref[at]))
                    << body.isa << " " << name(form) << " n=" << n << " shift=" << shift
                    << " ds=" << ds << " src=" << with_src << " i=" << i << ": "
                    << x_got[at] << " vs " << x_ref[at];
              }
            }
          }
        }
      }
    }
    // The specials must not have turned the comparison into NaN == NaN.
    EXPECT_GT(finite, compared / 4) << body.isa << ": " << finite << " finite of " << compared;
  }
}

TEST(RowKernel, ClassFormsMatchTheDenseForm) {
  // The scalar loop on class rows against the same loop on the expanded
  // tables: one loop, two forms.
  for (Form form : {Form::Indexed, Form::Uniform, Form::UniformButOne}) {
    for (int n : {1, 2, 3, 17, 1024}) {
      const Row row(n, form, 104729 * static_cast<std::uint64_t>(n));
      const Row dense = row.expanded();
      for (double ds : {+1.0, -1.0}) {
        for (bool with_src : {true, false}) {
          std::vector<double> x_cls = row.x, x_dense = row.x;
          kernels::update_row_scalar(row.args(x_cls, -1, ds, with_src));
          kernels::update_row_scalar(dense.args(x_dense, -1, ds, with_src));
          for (int i = 0; i < 2 * n; ++i) {
            const auto at = static_cast<std::size_t>(i);
            ASSERT_TRUE(same_bits(x_dense[at], x_cls[at]))
                << name(form) << " n=" << n << " ds=" << ds << " src=" << with_src
                << " i=" << i;
          }
        }
      }
    }
  }
}

}  // namespace
