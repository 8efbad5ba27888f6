// A single domain-sized double-complex array in the paper's interleaved
// (re, im) layout: element p occupies doubles [2p] (real) and [2p+1] (imag).
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "grid/layout.hpp"
#include "util/aligned.hpp"

namespace emwd::grid {

/// Validate a copy of `count` whole padded z-planes from [k_src, ...) of a
/// `src`-shaped array into [k_dst, ...) of a `dst`-shaped one (see
/// Field::copy_z_planes_from): throws std::invalid_argument unless both
/// share x/y extents and halo, std::out_of_range for a range outside
/// either padded extent.
void check_plane_copy(const Layout& src, const Layout& dst, int k_src, int k_dst,
                      int count);

class Field {
 public:
  Field() = default;
  explicit Field(const Layout& layout);

  const Layout& layout() const { return layout_; }

  /// Raw interleaved storage; index in doubles is 2 * complex-cell index.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::size_t size_bytes() const { return data_.size() * sizeof(double); }

  std::complex<double> at(int i, int j, int k) const {
    const std::size_t p = 2 * layout_.at(i, j, k);
    return {data_[p], data_[p + 1]};
  }

  void set(int i, int j, int k, std::complex<double> v) {
    const std::size_t p = 2 * layout_.at(i, j, k);
    data_[p] = v.real();
    data_[p + 1] = v.imag();
  }

  /// Reset everything (interior and halo) to zero.
  void clear();

  /// Free the array and keep the layout: the state of a split FieldSet's
  /// fields (FieldSet::split), which the set never hands out.
  void release() { decltype(data_)().swap(data_); }

  /// Copy `count` whole padded z-planes (interior plus x/y halo rows) from
  /// `src`, planes [k_src, k_src + count) into [k_dst, k_dst + count).
  /// Plane indices are logical (0 = first interior plane) and may extend
  /// `halo()` planes past either end.  Both layouts must share x/y extents
  /// and halo so the planes are laid out identically; used by the dist
  /// subsystem to slice shards and exchange halo planes.
  void copy_z_planes_from(const Field& src, int k_src, int k_dst, int count);

  /// Copy `count` whole padded z-planes [k0, k0 + count) into/out of a flat
  /// staging buffer of count * stride_z complex cells (interleaved doubles).
  /// Same logical plane indexing and range validation as
  /// copy_z_planes_from; used by the overlapped halo exchange's export
  /// (send) buffers.
  void copy_z_planes_to_buffer(double* out, int k0, int count) const;
  void copy_z_planes_from_buffer(const double* in, int k0, int count);

  /// Interior L2 norm sqrt(sum |v|^2); halo excluded.
  double norm() const;

 private:
  Layout layout_{};
  std::vector<double, util::AlignedAllocator<double>> data_;
};

}  // namespace emwd::grid
