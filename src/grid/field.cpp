#include "grid/field.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emwd::grid {

Field::Field(const Layout& layout) : layout_(layout), data_(layout.padded_cells() * 2, 0.0) {}

void Field::clear() { std::fill(data_.begin(), data_.end(), 0.0); }

void check_plane_copy(const Layout& ls, const Layout& ld, int k_src, int k_dst,
                      int count) {
  if (ls.nx() != ld.nx() || ls.ny() != ld.ny() || ls.halo() != ld.halo() ||
      ls.stride_z() != ld.stride_z()) {
    throw std::invalid_argument("copy_z_planes_from: incompatible plane shapes");
  }
  if (count < 0 || k_src < -ls.halo() || k_src + count > ls.nz() + ls.halo() ||
      k_dst < -ld.halo() || k_dst + count > ld.nz() + ld.halo()) {
    throw std::out_of_range("copy_z_planes_from: plane range outside padded extent");
  }
}

void Field::copy_z_planes_from(const Field& src, int k_src, int k_dst, int count) {
  const Layout& ls = src.layout_;
  const Layout& ld = layout_;
  check_plane_copy(ls, ld, k_src, k_dst, count);
  if (count == 0) return;
  // Padded z-planes are contiguous runs of stride_z complex cells.
  const std::size_t plane = static_cast<std::size_t>(ld.stride_z()) * 2;
  const double* from = src.data_.data() + static_cast<std::size_t>(k_src + ls.halo()) *
                                              static_cast<std::size_t>(ls.stride_z()) * 2;
  double* to = data_.data() + static_cast<std::size_t>(k_dst + ld.halo()) *
                                  static_cast<std::size_t>(ld.stride_z()) * 2;
  std::copy(from, from + plane * static_cast<std::size_t>(count), to);
}

void Field::copy_z_planes_to_buffer(double* out, int k0, int count) const {
  if (count < 0 || k0 < -layout_.halo() || k0 + count > layout_.nz() + layout_.halo()) {
    throw std::out_of_range("copy_z_planes_to_buffer: plane range outside padded extent");
  }
  const std::size_t plane = static_cast<std::size_t>(layout_.stride_z()) * 2;
  const double* from = data_.data() + static_cast<std::size_t>(k0 + layout_.halo()) * plane;
  std::copy(from, from + plane * static_cast<std::size_t>(count), out);
}

void Field::copy_z_planes_from_buffer(const double* in, int k0, int count) {
  if (count < 0 || k0 < -layout_.halo() || k0 + count > layout_.nz() + layout_.halo()) {
    throw std::out_of_range(
        "copy_z_planes_from_buffer: plane range outside padded extent");
  }
  const std::size_t plane = static_cast<std::size_t>(layout_.stride_z()) * 2;
  double* to = data_.data() + static_cast<std::size_t>(k0 + layout_.halo()) * plane;
  std::copy(in, in + plane * static_cast<std::size_t>(count), to);
}

double Field::norm() const {
  double sum = 0.0;
  const int nx = layout_.nx(), ny = layout_.ny(), nz = layout_.nz();
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      const double* row = data_.data() + 2 * layout_.at(0, j, k);
      for (int i = 0; i < 2 * nx; ++i) sum += row[i] * row[i];
    }
  }
  return std::sqrt(sum);
}

}  // namespace emwd::grid
