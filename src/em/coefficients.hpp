// THIIM update-coefficient construction (paper Eqs. 3-5).
//
// Discretizing the time-harmonic Maxwell iteration gives, per split
// component X with derivative axis d:
//
//   H:            (e^{i w tau/2} + tau*sigma*_d/mu) H^{n+1/2}
//                   = e^{-i w tau/2} H^{n-1/2} - (tau/mu) (curl E)_X + tau*S
//   E (forward):  (e^{i w tau}  + tau*sigma_d/eps) E^{n+1}
//                   = E^n + (tau/eps) e^{i w tau/2} (curl H)_X + tau*S
//   E (back, Re eps < 0, Eq. 5):
//                 (1 - tau*sigma_d/eps) E^{n+1}
//                   = e^{i w tau} E^n - (tau/eps) e^{i w tau/2} (curl H)_X - tau*S
//
// which maps exactly onto the kernel form  X = t*X + Src - c*diff  with the
// per-component diff signs from the component table.  The paper stores t
// and c as complex per-cell arrays (tHyx/cHyx etc.); a FieldSet stores the
// same values as per-component tables indexed by a per-cell class and the
// PML slice (grid/fieldset.hpp).  This module fills them from a material
// map + PML profiles, and also provides the synthetic coefficient sets the
// performance experiments use.
#pragma once

#include <complex>
#include <cstdint>

#include "em/material.hpp"
#include "em/pml.hpp"
#include "grid/fieldset.hpp"
#include "kernels/components.hpp"

namespace emwd::em {

struct ThiimParams {
  double omega = 0.2;  // angular frequency of the incident wave (c = 1 units)
  double tau = 0.288;  // pseudo-time step
  double h = 1.0;      // isotropic mesh width
};

/// Standard parameter choice: wavelength given in cells, CFL-limited tau.
ThiimParams make_params(double wavelength_cells, double cfl = 0.5, double h = 1.0);

/// Per-cell coefficient pair for one component (exposed for unit tests).
struct CoeffPair {
  std::complex<double> t;
  std::complex<double> c;
  /// Scale applied to a raw source S before storing into the Src array
  /// (tau/denom, negated for back-iteration cells).
  std::complex<double> src_scale;
  bool back_iteration = false;
};

CoeffPair compute_coeffs(const kernels::CompInfo& comp, const Material& m,
                         double sigma_pml, double sigma_star_pml, const ThiimParams& p);

/// Fill the t/c tables of `fs` from the material map and PML profiles: one
/// slice per distinct PML conductivity along each axis and one class per
/// palette entry (the cell classes are the palette ids).  Under x-PML the
/// classes are (palette id, x slice) pairs and x keeps one slice, unless
/// that makes more than 256 classes.  Every entry is
/// the compute_coeffs value the cells of that class and slice read.  Source
/// planes are dropped; add sources afterwards (em/source.hpp).
void build_coefficients(grid::FieldSet& fs, const MaterialGrid& mats,
                        const PmlProfiles& pml, const ThiimParams& p);

/// Uniform-material fast path (benchmarking: same arithmetic, no geometry):
/// one class, one slice per axis, no source plane.
void build_uniform_coefficients(grid::FieldSet& fs, const Material& m,
                                const ThiimParams& p);

/// Synthetic coefficients for correctness/performance tests: random tables
/// of 256 classes where every t has |t| in [rho/2, rho], rho < 1
/// (contractive, so long runs stay bounded) and |c| <= 0.05, and a random
/// class per interior cell.  Fields are seeded with random data and every
/// interior plane gets random sources (|src| <= 0.01).
void build_random_stable(grid::FieldSet& fs, std::uint64_t seed, double rho = 0.97);

}  // namespace emwd::em
