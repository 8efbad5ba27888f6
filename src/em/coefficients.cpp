#include "em/coefficients.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace emwd::em {

namespace {
constexpr double kPi = 3.14159265358979323846;
}  // namespace

ThiimParams make_params(double wavelength_cells, double cfl, double h) {
  ThiimParams p;
  p.h = h;
  p.omega = 2.0 * kPi / (wavelength_cells * h);  // c = 1
  p.tau = cfl * h / std::sqrt(3.0);
  return p;
}

CoeffPair compute_coeffs(const kernels::CompInfo& comp, const Material& m,
                         double sigma_pml, double sigma_star_pml, const ThiimParams& p) {
  using cd = std::complex<double>;
  const cd i_unit(0.0, 1.0);
  const cd phase_half = std::exp(i_unit * (p.omega * p.tau / 2.0));
  const cd phase_full = std::exp(i_unit * (p.omega * p.tau));

  CoeffPair out;
  if (comp.is_h) {
    const double sigma_star = m.sigma_star + sigma_star_pml;
    const cd denom = phase_half + cd(p.tau * sigma_star / m.mu, 0.0);
    out.t = std::conj(phase_half) / denom;  // e^{-i w tau/2} / denom
    out.c = cd(p.tau / (m.mu * p.h), 0.0) / denom;
    out.src_scale = cd(p.tau, 0.0) / denom;
    out.back_iteration = false;
    return out;
  }

  const double sigma = m.sigma + sigma_pml;
  out.back_iteration = m.needs_back_iteration();
  if (!out.back_iteration) {
    const cd denom = phase_full + p.tau * cd(sigma, 0.0) / m.eps;
    out.t = cd(1.0, 0.0) / denom;
    out.c = (p.tau / p.h) * phase_half / (m.eps * denom);
    out.src_scale = cd(p.tau, 0.0) / denom;
  } else {
    // Paper Eq. 5: the "back iteration" for negative-permittivity cells.
    const cd denom = cd(1.0, 0.0) - p.tau * cd(sigma, 0.0) / m.eps;
    out.t = phase_full / denom;
    out.c = -(p.tau / p.h) * phase_half / (m.eps * denom);
    out.src_scale = -cd(p.tau, 0.0) / denom;
  }
  return out;
}

void build_coefficients(grid::FieldSet& fs, const MaterialGrid& mats,
                        const PmlProfiles& pml, const ThiimParams& p) {
  const grid::Layout& L = fs.layout();
  // One slice per distinct PML (sigma, sigma*) pair along each axis; `rep`
  // keeps a position of each slice to evaluate its coefficients at.
  std::array<std::vector<int>, 3> slice_of, rep;
  const int extent[3] = {L.nx(), L.ny(), L.nz()};
  for (int a = 0; a < 3; ++a) {
    const auto axis = static_cast<kernels::Axis>(a);
    for (int pos = -L.halo(); pos < extent[a] + L.halo(); ++pos) {
      const auto same = [&](int r) {
        return pml.sigma(axis, r) == pml.sigma(axis, pos) &&
               pml.sigma_star(axis, r) == pml.sigma_star(axis, pos);
      };
      const auto it = std::find_if(rep[a].begin(), rep[a].end(), same);
      slice_of[a].push_back(static_cast<int>(it - rep[a].begin()));
      if (it == rep[a].end()) rep[a].push_back(pos);
    }
  }
  // Under x-PML, fold the x slice into the class (class = palette id x
  // x-slice count + x slice), so that an x-axis row reads one slice like
  // every other row instead of splitting at each shell cell.  Past 256
  // classes the x slices stay slices, and kernels::update_comp_row splits
  // x-axis rows into runs of equal slice.
  const int palette = static_cast<int>(mats.palette_size());
  const int x_slices = static_cast<int>(rep[0].size());
  const int fold = x_slices > 1 && palette * x_slices <= 256 ? x_slices : 1;
  std::vector<int> x_slice_of(L.nx() + 2 * L.halo(), 0);
  if (fold > 1) x_slice_of = std::exchange(slice_of[0], {});
  fs.reset_coefficients(palette * fold, slice_of);
  // Each entry is the compute_coeffs call the per-cell fill made for every
  // cell of that material at that position.
  for (const auto& comp : kernels::kComps) {
    const auto a = static_cast<int>(comp.axis);
    const bool x_in_class = comp.axis == kernels::Axis::X && fold > 1;
    for (int s = 0; s < fs.num_slices(comp.axis); ++s) {
      for (int cl = 0; cl < palette * fold; ++cl) {
        const int pos = x_in_class ? rep[0][cl % fold] : rep[a][s];
        const CoeffPair cc =
            compute_coeffs(comp, mats.material(static_cast<std::uint8_t>(cl / fold)),
                           pml.sigma(comp.axis, pos), pml.sigma_star(comp.axis, pos), p);
        fs.set_coeffs(comp.self, s, cl, cc.t, cc.c);
      }
    }
  }
  std::uint8_t* cls = fs.classes();
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < L.nx(); ++i) {
        cls[L.at(i, j, k)] = static_cast<std::uint8_t>(
            mats.id_at(i, j, k) * fold + x_slice_of[static_cast<std::size_t>(i + L.halo())]);
      }
    }
  }
  fs.clear_sources();
}

void build_uniform_coefficients(grid::FieldSet& fs, const Material& m,
                                const ThiimParams& p) {
  fs.reset_coefficients(1);
  for (const auto& comp : kernels::kComps) {
    const CoeffPair cc = compute_coeffs(comp, m, 0.0, 0.0, p);
    fs.set_coeffs(comp.self, 0, 0, cc.t, cc.c);
  }
  fs.clear_sources();
}

void build_random_stable(grid::FieldSet& fs, std::uint64_t seed, double rho) {
  util::Xoshiro256 rng(seed);
  const grid::Layout& L = fs.layout();
  const auto random_complex = [&](double mag_lo, double mag_hi) {
    const double mag = rng.uniform(mag_lo, mag_hi);
    const double phase = rng.uniform(0.0, 2.0 * kPi);
    return std::complex<double>(mag * std::cos(phase), mag * std::sin(phase));
  };
  constexpr int kClasses = 256;
  fs.reset_coefficients(kClasses);
  for (const auto& comp : kernels::kComps) {
    for (int id = 0; id < kClasses; ++id) {
      const std::complex<double> t = random_complex(0.5 * rho, rho);  // strictly contractive
      const std::complex<double> c = random_complex(0.0, 0.05);       // weak coupling
      fs.set_coeffs(comp.self, 0, id, t, c);
    }
  }
  fs.clear_sources();
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < L.nx(); ++i) {
        fs.classes()[L.at(i, j, k)] = static_cast<std::uint8_t>(rng.below(kClasses));
        for (const auto& comp : kernels::kComps) {
          fs.field(comp.self).set(i, j, k, random_complex(0.0, 1.0));  // random initial state
        }
        for (int s = 0; s < kernels::kNumSources; ++s) {
          fs.set_source(s, i, j, k, random_complex(0.0, 0.01));
        }
      }
    }
  }
}

}  // namespace emwd::em
