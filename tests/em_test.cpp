// Unit tests for materials, geometry, PML and THIIM coefficients.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>

#include "em/coefficients.hpp"
#include "em/geometry.hpp"
#include "em/material.hpp"
#include "em/observables.hpp"
#include "em/pml.hpp"
#include "em/source.hpp"
#include "grid/fieldset.hpp"
#include "kernels/update.hpp"
#include "util/rng.hpp"

namespace {

using namespace emwd;
using kernels::Axis;
using kernels::Comp;
using cd = std::complex<double>;

TEST(Material, PresetsAndBackIterationFlag) {
  EXPECT_FALSE(em::vacuum().needs_back_iteration());
  EXPECT_FALSE(em::amorphous_silicon().needs_back_iteration());
  EXPECT_TRUE(em::silver().needs_back_iteration());  // Re(eps) < 0
  EXPECT_LT(em::silver().eps.real(), 0.0);
  EXPECT_GT(em::glass().eps.real(), 1.0);
}

TEST(MaterialGrid, PaletteAndCensus) {
  grid::Layout L({4, 4, 4});
  em::MaterialGrid mats(L);
  EXPECT_EQ(mats.palette_size(), 1u);  // vacuum preinstalled
  const auto ag = mats.add(em::silver());
  mats.set(1, 1, 1, ag);
  mats.set(2, 2, 2, ag);
  const auto counts = mats.census();
  EXPECT_EQ(counts[0], 62u);
  EXPECT_EQ(counts[ag], 2u);
  EXPECT_EQ(mats.at(1, 1, 1).name, "silver");
  EXPECT_EQ(mats.at(0, 0, 0).name, "vacuum");
}

TEST(MaterialGrid, RejectsBadIds) {
  grid::Layout L({2, 2, 2});
  em::MaterialGrid mats(L);
  EXPECT_THROW(mats.set(0, 0, 0, 5), std::out_of_range);
  EXPECT_THROW(mats.fill(9), std::out_of_range);
}

TEST(Geometry, LayerAndSphere) {
  grid::Layout L({10, 10, 10});
  em::MaterialGrid mats(L);
  const auto a = mats.add(em::glass());
  const auto b = mats.add(em::silver());
  em::GeometryBuilder(mats).layer(a, 0, 3).sphere(b, 5, 5, 5, 2.0);
  EXPECT_EQ(mats.id_at(0, 0, 0), a);
  EXPECT_EQ(mats.id_at(9, 9, 2), a);
  EXPECT_EQ(mats.id_at(9, 9, 3), 0);
  EXPECT_EQ(mats.id_at(5, 5, 5), b);
  EXPECT_EQ(mats.id_at(5, 5, 7), b);  // on the radius
  EXPECT_EQ(mats.id_at(5, 5, 8), 0);  // outside
}

TEST(Geometry, TexturedLayerFollowsHeightMap) {
  grid::Layout L({8, 8, 12});
  em::MaterialGrid mats(L);
  const auto a = mats.add(em::tco());
  em::GeometryBuilder(mats).textured_layer(a, 0, 4, [](int i, int) {
    return i < 4 ? 0.5 : 3.5;  // step texture
  });
  EXPECT_EQ(mats.id_at(0, 0, 3), a);   // below base everywhere
  EXPECT_EQ(mats.id_at(0, 0, 4), 0);   // low region stops at base
  EXPECT_EQ(mats.id_at(5, 0, 6), a);   // high region extends
  EXPECT_EQ(mats.id_at(5, 0, 7), 0);
}

TEST(Geometry, TexturesAreDeterministicAndBounded) {
  const auto rough = em::GeometryBuilder::rough_texture(4.0, 3.0, 42);
  const auto rough2 = em::GeometryBuilder::rough_texture(4.0, 3.0, 42);
  const auto sin_tex = em::GeometryBuilder::sinusoidal_texture(2.0, 8.0, 8.0);
  for (int j = 0; j < 16; ++j) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(rough(i, j), rough2(i, j));
      EXPECT_GE(rough(i, j), 0.0);
      EXPECT_LE(rough(i, j), 4.0);
      EXPECT_GE(sin_tex(i, j), 0.0);
      EXPECT_LE(sin_tex(i, j), 4.0);
    }
  }
}

TEST(Pml, ProfileShape) {
  grid::Layout L({16, 16, 32});
  em::PmlSpec spec;  // z only, thickness 8
  em::PmlProfiles pml(L, spec, 1.0);
  // Interior free of damping.
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, 16), 0.0);
  // Maximum at the domain faces, graded monotonically.
  EXPECT_NEAR(pml.sigma(Axis::Z, 0), pml.sigma_max(), 1e-12);
  EXPECT_NEAR(pml.sigma(Axis::Z, 31), pml.sigma_max(), 1e-12);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_LE(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, k - 1));
  }
  // Symmetric front/back.
  for (int k = 0; k < 8; ++k) {
    EXPECT_NEAR(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, 31 - k), 1e-12);
  }
  // x and y are not absorbing in the default spec.
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::X, 0), 0.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Y, 0), 0.0);
  // Matched magnetic conductivity.
  EXPECT_DOUBLE_EQ(pml.sigma_star(Axis::Z, 2), pml.sigma(Axis::Z, 2));
}

TEST(Pml, OutOfRangeIsZero) {
  grid::Layout L({8, 8, 8});
  em::PmlProfiles pml(L, em::PmlSpec{}, 1.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, -1), 0.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, 100), 0.0);
}

TEST(Params, MakeParams) {
  const em::ThiimParams p = em::make_params(24.0, 0.5, 1.0);
  EXPECT_NEAR(p.omega, 2.0 * M_PI / 24.0, 1e-12);
  EXPECT_NEAR(p.tau, 0.5 / std::sqrt(3.0), 1e-12);
}

TEST(Coefficients, LosslessForwardIterationIsUnitary) {
  // sigma = 0, forward iteration: |t| = |1/e^{i w tau}| = 1 for Ê and
  // |e^{-i w tau/2}/e^{i w tau/2}| = 1 for Ĥ.
  const em::ThiimParams p = em::make_params(20.0);
  const em::Material vac = em::vacuum();
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, vac, 0.0, 0.0, p);
    EXPECT_NEAR(std::abs(cc.t), 1.0, 1e-12) << c.name;
    EXPECT_FALSE(cc.back_iteration);
    EXPECT_GT(std::abs(cc.c), 0.0);
  }
}

TEST(Coefficients, DampingContracts) {
  const em::ThiimParams p = em::make_params(20.0);
  em::Material lossy = em::vacuum();
  lossy.sigma = 0.5;
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, lossy, 0.5, 0.5, p);
    EXPECT_LT(std::abs(cc.t), 1.0) << c.name;  // strictly contractive
  }
}

TEST(Coefficients, BackIterationForSilver) {
  const em::ThiimParams p = em::make_params(20.0);
  const em::Material ag = em::silver();
  const auto& exy = kernels::info(Comp::Exy);
  const em::CoeffPair cc = em::compute_coeffs(exy, ag, 0.0, 0.0, p);
  EXPECT_TRUE(cc.back_iteration);
  // The back iteration flips the curl-coefficient sign relative to the
  // forward form; with eps < 0 the two effects compose to a finite value.
  EXPECT_TRUE(std::isfinite(cc.c.real()));
  EXPECT_TRUE(std::isfinite(cc.t.real()));
  // Ĥ components never use back iteration.
  const em::CoeffPair hh = em::compute_coeffs(kernels::info(Comp::Hyx), ag, 0.0, 0.0, p);
  EXPECT_FALSE(hh.back_iteration);
}

TEST(Coefficients, BuildUniformMatchesPerCell) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  const em::ThiimParams p = em::make_params(16.0);
  const em::Material m = em::glass();
  em::build_uniform_coefficients(fs, m, p);
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, m, 0.0, 0.0, p);
    const cd t = fs.t_at(c.self, 2, 1, 3);
    EXPECT_NEAR(std::abs(t - cc.t), 0.0, 1e-14);
    const cd cv = fs.c_at(c.self, 0, 0, 0);
    EXPECT_NEAR(std::abs(cv - cc.c), 0.0, 1e-14);
  }
}

TEST(Coefficients, BuildAppliesPmlPerDerivativeAxis) {
  // In the z-PML shell, only components whose derivative axis is z are
  // damped (Berenger splitting).
  grid::Layout L({8, 8, 24});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlSpec spec;
  spec.thickness = 6;
  em::PmlProfiles pml(L, spec, p.h);
  em::build_coefficients(fs, mats, pml, p);

  const cd t_z_shell = fs.t_at(Comp::Exy, 4, 4, 0);   // axis Z, in shell
  const cd t_z_core = fs.t_at(Comp::Exy, 4, 4, 12);   // axis Z, interior
  const cd t_y_shell = fs.t_at(Comp::Exz, 4, 4, 0);   // axis Y, in shell
  EXPECT_LT(std::abs(t_z_shell), std::abs(t_z_core));       // damped
  EXPECT_NEAR(std::abs(t_y_shell), std::abs(t_z_core), 1e-12);  // untouched
}

/// Bitwise equality of complex values.
bool same_bits(cd u, cd v) {
  return std::memcmp(&u, &v, sizeof(cd)) == 0;
}

/// A tandem-like stack that uses all six palette entries: a silver back
/// contact (back iteration), textured uc-Si:H, a-Si:H, TCO and glass under
/// vacuum.
em::MaterialGrid tandem_scene(const grid::Layout& L) {
  em::MaterialGrid mats(L);
  const auto ag = mats.add(em::silver());
  const auto ucsi = mats.add(em::microcrystalline_silicon());
  const auto asi = mats.add(em::amorphous_silicon());
  const auto tco = mats.add(em::tco());
  const auto glass = mats.add(em::glass());
  em::GeometryBuilder(mats)
      .layer(ag, 0, 6)
      .textured_layer(ucsi, 6, 12, em::GeometryBuilder::rough_texture(2.0, 3.0, 5))
      .layer(asi, 14, 18)
      .layer(tco, 18, 20)
      .layer(glass, 20, 24);
  return mats;
}

/// The kernel's per-cell arithmetic for cell (i, j, k) of `comp` on the
/// state `s`, with explicit t, c and source: what the dense layout computed.
cd dense_update(const grid::FieldSet& s, const kernels::CompInfo& ci, int i, int j, int k,
                cd t, cd c, cd src) {
  const grid::Layout& L = s.layout();
  int qi = i, qj = j, qk = k;
  (ci.axis == Axis::X ? qi : ci.axis == Axis::Y ? qj : qk) += ci.shift;
  if (s.x_boundary() == grid::XBoundary::Periodic && ci.axis == Axis::X) {
    qi = (qi + L.nx()) % L.nx();
  }
  const cd a = s.field(ci.partner_a).at(i, j, k), as = s.field(ci.partner_a).at(qi, qj, qk);
  const cd b = s.field(ci.partner_b).at(i, j, k), bs = s.field(ci.partner_b).at(qi, qj, qk);
  const cd x = s.field(ci.self).at(i, j, k);
  const double ds = ci.diff_sign;
  const double re = ds * (a.real() - as.real() + b.real() - bs.real());
  const double im = ds * (a.imag() - as.imag() + b.imag() - bs.imag());
  double xr = x.real() * t.real() - x.imag() * t.imag() - c.real() * re + c.imag() * im;
  double xi = x.real() * t.imag() + x.imag() * t.real() - c.real() * im - c.imag() * re;
  if (ci.src_index >= 0) {
    xr += src.real();
    xi += src.imag();
  }
  return {xr, xi};
}

/// The class-indexed tables of a set built from `mats`, read through the
/// set, must hold for every interior cell and component exactly the
/// compute_coeffs pair the dense per-cell fill stored, with PML on all three
/// axes, and the sources must be src_scale x amplitude on the plane and
/// +0.0 elsewhere.  Updating each component must then match the per-cell
/// arithmetic on those values, the periodic peel included.  `x_slices` is
/// the slice count the set keeps along x.
void expect_tables_equal_the_per_cell_formula(const em::MaterialGrid& mats, int x_slices) {
  const grid::Layout& L = mats.layout();
  const em::ThiimParams p = em::make_params(12.0);
  em::PmlSpec spec;
  spec.thickness = 4;
  spec.on_x = spec.on_y = spec.on_z = true;
  const em::PmlProfiles pml(L, spec, p.h);
  const int k_src = 26;
  const cd amplitude{0.7, -0.3};

  for (const auto bc : {grid::XBoundary::Dirichlet, grid::XBoundary::Periodic}) {
    grid::FieldSet fs(L);
    fs.set_x_boundary(bc);
    em::build_coefficients(fs, mats, pml, p);
    em::add_plane_wave(fs, mats, pml, p, em::SourceField::Hy, k_src, amplitude);
    EXPECT_EQ(fs.num_slices(Axis::X), x_slices);
    for (const Axis a : {Axis::Y, Axis::Z}) {
      EXPECT_EQ(fs.num_slices(a), spec.thickness + 1);  // shell depths + interior
    }
    util::Xoshiro256 rng(11);
    for (const auto& ci : kernels::kComps) {
      for (int k = 0; k < L.nz(); ++k) {
        for (int j = 0; j < L.ny(); ++j) {
          for (int i = 0; i < L.nx(); ++i) {
            fs.field(ci.self).set(i, j, k, {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)});
          }
        }
      }
    }

    for (const auto& ci : kernels::kComps) {
      grid::FieldSet next(fs);
      for (int k = 0; k < L.nz(); ++k) {
        for (int j = 0; j < L.ny(); ++j) kernels::update_comp_row(next, ci.self, 0, L.nx(), j, k);
      }
      for (int k = 0; k < L.nz(); ++k) {
        for (int j = 0; j < L.ny(); ++j) {
          for (int i = 0; i < L.nx(); ++i) {
            const int pos = kernels::axis_position(ci.axis, i, j, k);
            const em::CoeffPair cc = em::compute_coeffs(
                ci, mats.at(i, j, k), pml.sigma(ci.axis, pos), pml.sigma_star(ci.axis, pos), p);
            ASSERT_TRUE(same_bits(fs.t_at(ci.self, i, j, k), cc.t)) << ci.name << " " << i;
            ASSERT_TRUE(same_bits(fs.c_at(ci.self, i, j, k), cc.c)) << ci.name << " " << i;
            cd src{0.0, 0.0};
            if (ci.src_index >= 0) {
              src = fs.source_at(ci.src_index, i, j, k);
              const bool on_plane = ci.self == Comp::Hyx && k == k_src;
              ASSERT_TRUE(same_bits(src, on_plane ? cd(0.0, 0.0) + cc.src_scale * amplitude
                                                  : cd(0.0, 0.0)))
                  << ci.name << " k=" << k;
            }
            ASSERT_TRUE(same_bits(next.field(ci.self).at(i, j, k),
                                  dense_update(fs, ci, i, j, k, cc.t, cc.c, src)))
                << ci.name << " (" << i << "," << j << "," << k << ")";
          }
        }
      }
    }
  }
}

TEST(Coefficients, TablesEqualThePerCellFormula) {
  // 6 materials x 5 x slices = 30 classes: the x slice folds into the
  // class, so x-axis rows read one slice.
  const em::MaterialGrid mats = tandem_scene(grid::Layout({13, 12, 30}));
  ASSERT_EQ(mats.palette_size(), 6u);
  expect_tables_equal_the_per_cell_formula(mats, 1);
}

TEST(Coefficients, TablesEqualThePerCellFormulaPastTheClassLimit) {
  // 60 materials x 5 x slices = 300 classes, more than a class byte holds:
  // the x slices stay slices and x-axis rows split into runs of equal
  // slice.  Each (j, k) row carries one material, so all 60 meet every x
  // slice.
  const grid::Layout L({13, 12, 30});
  em::MaterialGrid mats(L);
  for (int m = 1; m < 60; ++m) {
    mats.add(em::Material{"m" + std::to_string(m), {1.0 + 0.25 * m, 0.01 * m}, 1.0, 0.001 * m,
                          0.0});
  }
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      const auto id = static_cast<std::uint8_t>((j + L.ny() * k) % 60);
      for (int i = 0; i < L.nx(); ++i) mats.set(i, j, k, id);
    }
  }
  ASSERT_EQ(mats.palette_size(), 60u);
  expect_tables_equal_the_per_cell_formula(mats, 5);
}

TEST(Coefficients, RandomStableIsContractiveAndSeeded) {
  grid::Layout L({6, 6, 6});
  grid::FieldSet a(L), b(L);
  em::build_random_stable(a, 7);
  em::build_random_stable(b, 7);
  EXPECT_DOUBLE_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);  // deterministic
  for (const auto& c : kernels::kComps) {
    for (int k = 0; k < 6; ++k) {
      for (int j = 0; j < 6; ++j) {
        for (int i = 0; i < 6; ++i) {
          EXPECT_LE(std::abs(a.t_at(c.self, i, j, k)), 0.97 + 1e-12);
        }
      }
    }
  }
  grid::FieldSet c2(L);
  em::build_random_stable(c2, 8);
  EXPECT_GT(grid::FieldSet::max_field_diff(a, c2), 0.0);  // seed matters
}

TEST(Sources, PlaneWaveDepositsOnSinglePlane) {
  grid::Layout L({6, 6, 10});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlProfiles pml(L, em::PmlSpec{}, p.h);
  em::add_plane_wave(fs, mats, pml, p, em::SourceField::Ex, 7, {1.0, 0.0});
  for (int k = 0; k < 10; ++k) {  // SrcEx
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        if (k == 7) {
          EXPECT_GT(std::abs(fs.source_at(0, i, j, k)), 0.0);
        } else {
          EXPECT_EQ(fs.source_at(0, i, j, k), cd(0, 0));
        }
      }
    }
  }
  EXPECT_THROW(
      em::add_plane_wave(fs, mats, pml, p, em::SourceField::Ex, 10, {1.0, 0.0}),
      std::out_of_range);
}

TEST(Sources, PointDipoleSingleCellAndAccumulates) {
  grid::Layout L({6, 6, 6});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlProfiles pml(L, em::PmlSpec{}, p.h);
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {1.0, 0.0});
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {1.0, 0.0});
  const cd v = fs.source_at(3, 2, 3, 4);  // SrcHy
  EXPECT_GT(std::abs(v), 0.0);
  // Second deposit doubled the value.
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {-2.0, 0.0});
  EXPECT_NEAR(std::abs(fs.source_at(3, 2, 3, 4)), 0.0, 1e-14);
  EXPECT_THROW(
      em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 6, 0, 0, {1.0, 0.0}),
      std::out_of_range);
}

TEST(Observables, EnergyAndParents) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  fs.field(Comp::Exy).set(1, 1, 1, {3.0, 0.0});
  fs.field(Comp::Exz).set(1, 1, 1, {1.0, 0.0});
  EXPECT_EQ(em::parent_E(fs, 0, 1, 1, 1), cd(4.0, 0.0));
  EXPECT_DOUBLE_EQ(em::electric_energy(fs), 16.0);
  EXPECT_DOUBLE_EQ(em::magnetic_energy(fs), 0.0);
  fs.field(Comp::Hzx).set(0, 0, 0, {0.0, 2.0});
  EXPECT_EQ(em::parent_H(fs, 2, 0, 0, 0), cd(0.0, 2.0));
  EXPECT_DOUBLE_EQ(em::total_energy(fs), 20.0);
}

TEST(Observables, AbsorptionGroupsByMaterial) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const auto asi = mats.add(em::amorphous_silicon());
  mats.set(1, 1, 1, asi);
  fs.field(Comp::Exy).set(1, 1, 1, {1.0, 0.0});  // inside a-Si
  fs.field(Comp::Eyx).set(2, 2, 2, {1.0, 0.0});  // in vacuum
  const auto abs = em::absorption_by_material(fs, mats, 0.3);
  ASSERT_EQ(abs.size(), 2u);
  EXPECT_GT(abs[asi], 0.0);
  EXPECT_DOUBLE_EQ(abs[0], 0.0);  // vacuum absorbs nothing
}

TEST(Observables, FixedPointResidualDropsAtSteadyState) {
  // In a strongly lossy medium with no source, any state decays: the
  // residual is positive while fields are nonzero, and the all-zero state
  // (with zero sources) is an exact fixed point with residual 0.
  grid::Layout L({6, 6, 6});
  grid::FieldSet fs(L);
  em::build_uniform_coefficients(fs, em::vacuum(), em::make_params(12.0));
  EXPECT_DOUBLE_EQ(em::fixed_point_residual(fs), 0.0);  // zero state, no source
  fs.field(Comp::Exy).set(3, 3, 3, {1.0, 0.0});
  EXPECT_GT(em::fixed_point_residual(fs), 0.0);
  // The residual probe must not modify the state itself.
  EXPECT_EQ(fs.field(Comp::Exy).at(3, 3, 3), cd(1.0, 0.0));
}

TEST(Observables, RelativeChange) {
  grid::Layout L({3, 3, 3});
  grid::FieldSet a(L), b(L);
  a.field(Comp::Exy).set(0, 0, 0, {2.0, 0.0});
  b.copy_fields_from(a);
  EXPECT_DOUBLE_EQ(em::relative_change(a, b), 0.0);
  b.field(Comp::Exy).set(0, 0, 0, {3.0, 0.0});
  EXPECT_DOUBLE_EQ(em::relative_change(a, b), 0.5);  // |2-3| / |2|
}

}  // namespace
