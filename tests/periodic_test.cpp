// Periodic-x boundary conditions (the paper's Sec. VI outlook, implemented
// via peeled first/last x iterations).
#include <gtest/gtest.h>

#include "em/coefficients.hpp"
#include "exec/engine.hpp"
#include "grid/fieldset.hpp"
#include "kernels/components.hpp"
#include "kernels/reference.hpp"
#include "util/rng.hpp"

namespace {

using namespace emwd;
using grid::XBoundary;
using kernels::Comp;

/// Coefficients constant along x (random in y, z) — the setting where
/// x-translation invariance must hold exactly.  Each (j, k) row gets a class
/// of its own (at most 256 rows), and x-constant fields and sources.
void build_x_uniform(grid::FieldSet& fs, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const grid::Layout& L = fs.layout();
  const auto random = [&](double lo, double hi) {
    return std::complex<double>{rng.uniform(lo, hi), rng.uniform(lo, hi)};
  };
  const int rows = L.ny() * L.nz();
  fs.reset_coefficients(rows);
  for (const auto& c : kernels::kComps) {
    for (int r = 0; r < rows; ++r) {
      const std::complex<double> t = random(-0.5, 0.5);
      fs.set_coeffs(c.self, 0, r, t, random(-0.2, 0.2));
    }
  }
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < L.nx(); ++i) {
        fs.classes()[L.at(i, j, k)] = static_cast<std::uint8_t>(j + L.ny() * k);
      }
      for (const auto& c : kernels::kComps) {
        const std::complex<double> v = random(-1.0, 1.0);
        for (int i = 0; i < L.nx(); ++i) fs.field(c.self).set(i, j, k, v);
      }
      for (int s = 0; s < kernels::kNumSources; ++s) {
        const std::complex<double> v = random(-0.1, 0.1);
        for (int i = 0; i < L.nx(); ++i) fs.set_source(s, i, j, k, v);
      }
    }
  }
}

/// Copy of `src` with every per-cell array (fields, classes, sources)
/// cyclically shifted by `d` cells in x.
grid::FieldSet shifted_copy(const grid::FieldSet& src, int d) {
  const grid::Layout& L = src.layout();
  grid::FieldSet out(src);
  const int nx = L.nx();
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < nx; ++i) {
        const int to = (i + d) % nx;
        for (const auto& c : kernels::kComps) {
          out.field(c.self).set(to, j, k, src.field(c.self).at(i, j, k));
        }
        out.classes()[L.at(to, j, k)] = src.classes()[L.at(i, j, k)];
        for (int s = 0; s < kernels::kNumSources; ++s) {
          out.set_source(s, to, j, k, src.source_at(s, i, j, k));
        }
      }
    }
  }
  return out;
}

TEST(PeriodicX, UniformRowsStayUniform) {
  // With x-uniform data and periodic wrap there is no x boundary at all:
  // every row must remain exactly constant along x.  (Dirichlet breaks this
  // at the edges of the x-shift components.)
  grid::Layout L({8, 6, 6});
  grid::FieldSet fs(L);
  fs.set_x_boundary(XBoundary::Periodic);
  build_x_uniform(fs, 17);
  kernels::reference_step(fs, 4);
  for (const auto& c : kernels::kComps) {
    for (int k = 0; k < 6; ++k) {
      for (int j = 0; j < 6; ++j) {
        const auto v0 = fs.field(c.self).at(0, j, k);
        for (int i = 1; i < 8; ++i) {
          EXPECT_EQ(fs.field(c.self).at(i, j, k), v0)
              << c.name << " row not x-uniform at i=" << i;
        }
      }
    }
  }
}

TEST(PeriodicX, DirichletBreaksUniformityAtTheEdge) {
  // Control for the test above: same data under Dirichlet must differ at
  // the wrap cells (proving the periodic path actually changes behaviour).
  grid::Layout L({8, 6, 6});
  grid::FieldSet per(L), dir(L);
  per.set_x_boundary(XBoundary::Periodic);
  build_x_uniform(per, 17);
  build_x_uniform(dir, 17);
  kernels::reference_step(per, 2);
  kernels::reference_step(dir, 2);
  EXPECT_GT(grid::FieldSet::max_field_diff(per, dir), 0.0);
}

TEST(PeriodicX, CyclicShiftEquivariance) {
  // Periodic systems commute with cyclic translation: shift-then-step must
  // equal step-then-shift, bitwise (same arithmetic per cell).
  grid::Layout L({9, 7, 6});
  grid::FieldSet fs(L);
  fs.set_x_boundary(XBoundary::Periodic);
  em::build_random_stable(fs, 23);
  for (int d : {1, 4}) {
    grid::FieldSet pre_shifted = shifted_copy(fs, d);
    grid::FieldSet original = shifted_copy(fs, 0);  // deep copy incl. coeffs
    kernels::reference_step(original, 3);
    kernels::reference_step(pre_shifted, 3);
    const grid::FieldSet expect = shifted_copy(original, d);
    EXPECT_EQ(grid::FieldSet::max_field_diff(pre_shifted, expect), 0.0) << "d=" << d;
  }
}

TEST(PeriodicX, MwdMatchesReferenceUnderPeriodicBc) {
  grid::Layout L({11, 13, 10});
  grid::FieldSet ref(L);
  ref.set_x_boundary(XBoundary::Periodic);
  em::build_random_stable(ref, 31);
  grid::FieldSet fs(L);
  fs.set_x_boundary(XBoundary::Periodic);
  em::build_random_stable(fs, 31);

  kernels::reference_step(ref, 4);
  exec::MwdParams p;
  p.dw = 3;
  p.bz = 2;
  p.tx = 2;  // the x split must interact correctly with the peel
  p.tc = 3;
  p.num_tgs = 2;
  auto eng = exec::make_mwd_engine(p);
  eng->run(fs, 4);
  EXPECT_EQ(grid::FieldSet::max_field_diff(fs, ref), 0.0);
}

TEST(PeriodicX, SpatialAndNaiveMatchUnderPeriodicBc) {
  grid::Layout L({10, 8, 8});
  auto make = [&]() {
    grid::FieldSet f(L);
    f.set_x_boundary(XBoundary::Periodic);
    em::build_random_stable(f, 37);
    return f;
  };
  grid::FieldSet ref = make(), a = make(), b = make();
  kernels::reference_step(ref, 3);
  exec::make_naive_engine(3)->run(a, 3);
  exec::make_spatial_engine(2, 4)->run(b, 3);
  EXPECT_EQ(grid::FieldSet::max_field_diff(a, ref), 0.0);
  EXPECT_EQ(grid::FieldSet::max_field_diff(b, ref), 0.0);
}

TEST(PeriodicX, DegenerateSingleCellXDoesNotCrash) {
  grid::Layout L({1, 6, 6});
  grid::FieldSet fs(L);
  fs.set_x_boundary(XBoundary::Periodic);
  em::build_random_stable(fs, 41);
  kernels::reference_step(fs, 2);
  for (const auto& c : kernels::kComps) {
    EXPECT_TRUE(std::isfinite(fs.field(c.self).norm()));
  }
}

TEST(PeriodicX, OnlyXShiftComponentsWrap) {
  // A lone value at x = nx-1 in a partner array must influence x = 0 after
  // one half-step only through the two x-shift Ĥ components.
  grid::Layout L({6, 6, 6});
  grid::FieldSet fs(L);
  fs.set_x_boundary(XBoundary::Periodic);
  for (const auto& c : kernels::kComps) fs.set_coeffs(c.self, 0, 0, {1.0, 0.0}, {1.0, 0.0});
  // Ezx+Ezy feed Hyz (x-); Eyx+Eyz feed Hzy (x-).
  fs.field(Comp::Ezx).set(5, 3, 3, {1.0, 0.0});
  kernels::reference_half_step(fs, /*h_phase=*/true);
  EXPECT_NE(fs.field(Comp::Hyz).at(0, 3, 3), std::complex<double>(0, 0));
  // Hzx (y-shift) must NOT wrap in x.
  EXPECT_EQ(fs.field(Comp::Hzx).at(0, 3, 3), std::complex<double>(0, 0));
}

}  // namespace
