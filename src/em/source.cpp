#include "em/source.hpp"

#include <stdexcept>

namespace emwd::em {
namespace {

/// The component that owns each source array (see kernels component table).
kernels::Comp owner(SourceField which) {
  switch (which) {
    case SourceField::Ex:
      return kernels::Comp::Exy;  // src_index 0
    case SourceField::Ey:
      return kernels::Comp::Eyx;  // src_index 1
    case SourceField::Hx:
      return kernels::Comp::Hxy;  // src_index 2
    case SourceField::Hy:
    default:
      return kernels::Comp::Hyx;  // src_index 3
  }
}

void deposit(grid::FieldSet& fs, const MaterialGrid& mats, const PmlProfiles& pml,
             const ThiimParams& p, SourceField which, int i, int j, int k,
             std::complex<double> amplitude) {
  const kernels::CompInfo& ci = kernels::info(owner(which));
  const Material& m = mats.at(i, j, k);
  const int pos = kernels::axis_position(ci.axis, i, j, k);
  const CoeffPair cc =
      compute_coeffs(ci, m, pml.sigma(ci.axis, pos), pml.sigma_star(ci.axis, pos), p);
  fs.set_source(ci.src_index, i, j, k,
                fs.source_at(ci.src_index, i, j, k) + cc.src_scale * amplitude);
}

}  // namespace

void add_plane_wave(grid::FieldSet& fs, const MaterialGrid& mats, const PmlProfiles& pml,
                    const ThiimParams& p, SourceField which, int k0,
                    std::complex<double> amplitude) {
  const grid::Layout& L = fs.layout();
  if (k0 < 0 || k0 >= L.nz()) throw std::out_of_range("add_plane_wave: k0 outside grid");
  for (int j = 0; j < L.ny(); ++j) {
    for (int i = 0; i < L.nx(); ++i) {
      deposit(fs, mats, pml, p, which, i, j, k0, amplitude);
    }
  }
}

void add_point_dipole(grid::FieldSet& fs, const MaterialGrid& mats, const PmlProfiles& pml,
                      const ThiimParams& p, SourceField which, int i, int j, int k,
                      std::complex<double> amplitude) {
  const grid::Layout& L = fs.layout();
  if (!L.contains(i, j, k)) throw std::out_of_range("add_point_dipole: cell outside grid");
  deposit(fs, mats, pml, p, which, i, j, k, amplitude);
}

}  // namespace emwd::em
