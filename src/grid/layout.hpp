// Padded 3-D array layout for the staggered-grid fields.
//
// Logical interior cells are (i, j, k) with i in [0, nx) (fast/x), j in
// [0, ny) (middle/y, the diamond dimension) and k in [0, nz) (outer/z, the
// wavefront dimension).  A one-cell halo surrounds the interior on all sides;
// it is kept at zero, which implements the homogeneous Dirichlet boundary
// conditions the paper benchmarks with (Sec. II-B).  Under periodic x
// (grid::XBoundary) the x-halo cells instead hold the wrapped partner
// values the kernel copies there before a row reads them.  All indices
// address *complex* cells; a cell is two doubles (re, im) exactly like the
// interleaved layout in the paper's Listings 1 and 2.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace emwd::grid {

struct Extents {
  int nx = 0;
  int ny = 0;
  int nz = 0;

  friend bool operator==(const Extents&, const Extents&) = default;

  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
};

class Layout {
 public:
  Layout() = default;

  /// `halo` cells of padding on every face (>= 1 for the THIIM stencil).
  explicit Layout(Extents interior, int halo = 1);

  int nx() const { return interior_.nx; }
  int ny() const { return interior_.ny; }
  int nz() const { return interior_.nz; }
  int halo() const { return halo_; }
  Extents interior() const { return interior_; }

  /// Padded extents (complex cells per axis).
  int px() const { return px_; }
  int py() const { return py_; }
  int pz() const { return pz_; }

  /// Strides in complex cells.
  std::ptrdiff_t stride_x() const { return 1; }
  std::ptrdiff_t stride_y() const { return sy_; }
  std::ptrdiff_t stride_z() const { return sz_; }

  /// Total complex cells of padded storage.
  std::size_t padded_cells() const { return static_cast<std::size_t>(sz_) * pz_; }

  /// Complex-cell index of logical (i, j, k); halo cells reachable with
  /// coordinates in [-halo, n + halo).  The interior x origin sits on a
  /// cache-line boundary (x_offset >= halo), so row starts are aligned for
  /// both real hardware and the cache simulator.
  std::size_t at(int i, int j, int k) const {
    return static_cast<std::size_t>((k + halo_) * sz_ + (j + halo_) * sy_ + (i + x_off_));
  }

  /// Physical x offset of interior cell 0 within a row (in complex cells).
  int x_offset() const { return x_off_; }

  /// Interior membership test (excludes halo).
  bool contains(int i, int j, int k) const {
    return i >= 0 && i < interior_.nx && j >= 0 && j < interior_.ny && k >= 0 &&
           k < interior_.nz;
  }

  /// True for coordinates addressable through at(), interior or halo.
  bool addressable(int i, int j, int k) const {
    return i >= -halo_ && i < interior_.nx + halo_ && j >= -halo_ &&
           j < interior_.ny + halo_ && k >= -halo_ && k < interior_.nz + halo_;
  }

  std::string describe() const;

  friend bool operator==(const Layout&, const Layout&) = default;

 private:
  Extents interior_{};
  int halo_ = 1;
  int x_off_ = 4;                  // physical offset of interior x=0 (aligned)
  int px_ = 0, py_ = 0, pz_ = 0;   // padded extents per axis
  std::ptrdiff_t sy_ = 0, sz_ = 0; // row / plane strides in complex cells
};

}  // namespace emwd::grid
