#include "em/observables.hpp"

#include <cmath>

#include "kernels/components.hpp"
#include "kernels/reference.hpp"

namespace emwd::em {

using kernels::Comp;

namespace {

/// The two split parts of each parent component along axis 0..2: Ex = Exy
/// + Exz, Ey = Eyx + Eyz, Ez = Ezx + Ezy (and the same for H).
constexpr Comp kParentE[3][2] = {
    {Comp::Exy, Comp::Exz}, {Comp::Eyx, Comp::Eyz}, {Comp::Ezx, Comp::Ezy}};
constexpr Comp kParentH[3][2] = {
    {Comp::Hxy, Comp::Hxz}, {Comp::Hyx, Comp::Hyz}, {Comp::Hzx, Comp::Hzy}};

std::complex<double> cell(const double* row, int i) { return {row[2 * i], row[2 * i + 1]}; }

/// Parent component `axis` of `parts` (kParentE or kParentH) at one cell.
std::complex<double> parent_at(const grid::FieldSet& fs, const Comp (&parts)[3][2], int axis,
                               int i, int j, int k) {
  const Comp(&p)[2] = parts[axis == 0 || axis == 1 ? axis : 2];
  return cell(fs.row(p[0], j, k), i) + cell(fs.row(p[1], j, k), i);
}

/// Rows (j, k) of the six split parts in `parts`, for one row's parents.
struct ParentRows {
  ParentRows(const grid::FieldSet& fs, const Comp (&parts)[3][2], int j, int k) {
    for (int axis = 0; axis < 3; ++axis) {
      for (int p = 0; p < 2; ++p) rows[axis][p] = fs.row(parts[axis][p], j, k);
    }
  }
  std::complex<double> at(int axis, int i) const {
    return cell(rows[axis][0], i) + cell(rows[axis][1], i);
  }
  const double* rows[3][2];
};

double parent_energy(const grid::FieldSet& fs, const Comp (&parts)[3][2]) {
  const grid::Layout& L = fs.layout();
  double sum = 0.0;
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      const ParentRows r(fs, parts, j, k);
      for (int i = 0; i < L.nx(); ++i) {
        for (int axis = 0; axis < 3; ++axis) sum += std::norm(r.at(axis, i));
      }
    }
  }
  return sum;
}

}  // namespace

std::complex<double> parent_E(const grid::FieldSet& fs, int axis, int i, int j, int k) {
  return parent_at(fs, kParentE, axis, i, j, k);
}

std::complex<double> parent_H(const grid::FieldSet& fs, int axis, int i, int j, int k) {
  return parent_at(fs, kParentH, axis, i, j, k);
}

double electric_energy(const grid::FieldSet& fs) { return parent_energy(fs, kParentE); }

double magnetic_energy(const grid::FieldSet& fs) { return parent_energy(fs, kParentH); }

std::vector<double> absorption_by_material(const grid::FieldSet& fs,
                                           const MaterialGrid& mats, double omega) {
  const grid::Layout& L = fs.layout();
  std::vector<double> out(mats.palette_size(), 0.0);
  for (int k = 0; k < L.nz(); ++k) {
    for (int j = 0; j < L.ny(); ++j) {
      const ParentRows r(fs, kParentE, j, k);
      for (int i = 0; i < L.nx(); ++i) {
        double e2 = 0.0;
        for (int axis = 0; axis < 3; ++axis) e2 += std::norm(r.at(axis, i));
        const std::uint8_t id = mats.id_at(i, j, k);
        const Material& m = mats.material(id);
        out[id] += (m.sigma + omega * m.eps.imag()) * e2;
      }
    }
  }
  return out;
}

double fields_norm(const grid::FieldSet& fs) {
  const grid::Layout& L = fs.layout();
  double sum = 0.0;
  for (const auto& c : kernels::kComps) {
    // Each component's norm is taken on its own, then squared back.
    double sq = 0.0;
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* row = fs.row(c.self, j, k);
        for (int i = 0; i < 2 * L.nx(); ++i) sq += row[i] * row[i];
      }
    }
    const double n = std::sqrt(sq);
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
  const grid::Layout& L = a.layout();
  double num = 0.0;
  for (const auto& c : kernels::kComps) {
    // ||a - b||^2 accumulated per component without materializing a copy.
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* ra = a.row(c.self, j, k);
        const double* rb = b.row(c.self, j, k);
        for (int i = 0; i < L.nx(); ++i) num += std::norm(cell(ra, i) - cell(rb, i));
      }
    }
  }
  const double denom = fields_norm(a);
  return denom > 0.0 ? std::sqrt(num) / denom : std::sqrt(num);
}

}  // namespace emwd::em
