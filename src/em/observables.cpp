#include "em/observables.hpp"

#include <cmath>

#include "kernels/components.hpp"
#include "kernels/reference.hpp"

namespace emwd::em {

using kernels::Comp;

std::complex<double> parent_E(const grid::FieldSet& fs, int axis, int i, int j, int k) {
  switch (axis) {
    case 0:
      return fs.field(Comp::Exy).at(i, j, k) + fs.field(Comp::Exz).at(i, j, k);
    case 1:
      return fs.field(Comp::Eyx).at(i, j, k) + fs.field(Comp::Eyz).at(i, j, k);
    default:
      return fs.field(Comp::Ezx).at(i, j, k) + fs.field(Comp::Ezy).at(i, j, k);
  }
}

std::complex<double> parent_H(const grid::FieldSet& fs, int axis, int i, int j, int k) {
  switch (axis) {
    case 0:
      return fs.field(Comp::Hxy).at(i, j, k) + fs.field(Comp::Hxz).at(i, j, k);
    case 1:
      return fs.field(Comp::Hyx).at(i, j, k) + fs.field(Comp::Hyz).at(i, j, k);
    default:
      return fs.field(Comp::Hzx).at(i, j, k) + fs.field(Comp::Hzy).at(i, j, k);
  }
}

namespace {

double parent_energy(const grid::FieldSet& fs, bool electric) {
  const grid::Layout& L = fs.layout();
  double sum = 0.0;
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < L.nx(); ++i) {
        for (int axis = 0; axis < 3; ++axis) {
          const std::complex<double> v =
              electric ? parent_E(fs, axis, i, j, k) : parent_H(fs, axis, i, j, k);
          sum += std::norm(v);
        }
      }
    }
  }
  return sum;
}

}  // namespace

double electric_energy(const grid::FieldSet& fs) { return parent_energy(fs, true); }

double magnetic_energy(const grid::FieldSet& fs) { return parent_energy(fs, false); }

std::vector<double> absorption_by_material(const grid::FieldSet& fs,
                                           const MaterialGrid& mats, double omega) {
  const grid::Layout& L = fs.layout();
  std::vector<double> out(mats.palette_size(), 0.0);
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      for (int i = 0; i < L.nx(); ++i) {
        double e2 = 0.0;
        for (int axis = 0; axis < 3; ++axis) e2 += std::norm(parent_E(fs, axis, i, j, k));
        const std::uint8_t id = mats.id_at(i, j, k);
        const Material& m = mats.material(id);
        out[id] += (m.sigma + omega * m.eps.imag()) * e2;
      }
    }
  }
  return out;
}

double fields_norm(const grid::FieldSet& fs) {
  double sum = 0.0;
  for (const auto& c : kernels::kComps) {
    const double n = fs.field(c.self).norm();
    sum += n * n;
  }
  return std::sqrt(sum);
}

double fixed_point_residual(const grid::FieldSet& fs) {
  grid::FieldSet next(fs);
  kernels::reference_step(next, 1);
  return relative_change(fs, next);
}

double relative_change(const grid::FieldSet& a, const grid::FieldSet& b) {
  double num = 0.0;
  for (const auto& c : kernels::kComps) {
    // ||a - b||^2 accumulated per component without materializing a copy.
    const grid::Layout& L = a.layout();
    const grid::Field& fa = a.field(c.self);
    const grid::Field& fb = b.field(c.self);
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        for (int i = 0; i < L.nx(); ++i) {
          num += std::norm(fa.at(i, j, k) - fb.at(i, j, k));
        }
      }
    }
  }
  const double denom = fields_norm(a);
  return denom > 0.0 ? std::sqrt(num) / denom : std::sqrt(num);
}

}  // namespace emwd::em
