// The complete THIIM state: 12 field arrays plus compact static data.
//
// The paper's update (Sec. III, Listings 1-2) streams 40 domain-sized
// double-complex arrays, 640 bytes per cell: the 12 split components, a `t`
// and a `c` coefficient array per component and 4 source arrays on the
// z-shift components.  But the coefficients are a pure function of the
// component, the cell's material, the PML conductivity along the
// component's axis and the THIIM parameters (em::compute_coeffs), and the
// sources vanish off the z-planes they were written to.  So the set stores
//   - the 12 field arrays (192 B per cell);
//   - one uint8 coefficient class per padded cell, shared by all 12
//     components (em::build_coefficients writes the material palette id,
//     combined with the x-PML position under x-PML);
//   - per component, a (t, c) table with one entry per class in each slice.
//     Slices are keyed by position along the component's axis: an axis
//     without PML has one slice, an axis with PML one per distinct
//     conductivity.  A y-axis row reads the slice of its j, a z-axis row
//     the slice of its k.  An x-axis row reads one slice when x has one;
//     otherwise it splits into runs of equal slice
//     (kernels::update_comp_row);
//   - per source array, only the padded z-planes that were written, plus
//     one shared zero row that source-owning rows without a stored plane
//     read.  Those rows still add +0.0, which turns a -0.0 into +0.0, so
//     results match a dense source array bit for bit;
// about 193 bytes per cell.  models/code_balance.hpp keeps the paper's
// 40-array counting for Eqs. 8-12.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "grid/field.hpp"
#include "grid/layout.hpp"
#include "kernels/components.hpp"
#include "util/aligned.hpp"

namespace emwd::grid {

/// Boundary handling along x (the fast dimension).  Dirichlet is the
/// paper's benchmark configuration (zero halo); Periodic implements the
/// paper's Sec. VI outlook via peeled first/last x iterations that read the
/// wrapped-around partner cells.  y and z remain Dirichlet (the tiling
/// would need wrap-around dependencies otherwise).
enum class XBoundary : std::uint8_t { Dirichlet, Periodic };

class FieldSet {
 public:
  FieldSet() = default;
  /// All fields zero; one class and one slice per axis with t = c = 0;
  /// no source plane stored.
  explicit FieldSet(const Layout& layout);

  const Layout& layout() const { return layout_; }

  Field& field(kernels::Comp c) { return fields_[kernels::idx(c)]; }
  const Field& field(kernels::Comp c) const { return fields_[kernels::idx(c)]; }

  // ---- coefficients --------------------------------------------------

  /// Replace the tables with `num_classes` classes (1..256) and, per axis,
  /// the slice of every padded position ([-halo, n + halo), so
  /// `slice_of[axis][pos + halo]`; an empty vector means one slice).  All
  /// entries become t = c = 0 and every cell class 0.
  void reset_coefficients(int num_classes, const std::array<std::vector<int>, 3>& slice_of = {});

  int num_slices(kernels::Axis a) const { return num_slices_[static_cast<int>(a)]; }
  /// Slice of position `pos` (in [-halo, n + halo)) along axis `a`.
  int slice(kernels::Axis a, int pos) const {
    return slice_of_[static_cast<int>(a)][static_cast<std::size_t>(pos + layout_.halo())];
  }

  /// Write entry (slice, cls) of component c's table; a fresh set's one
  /// entry is (0, 0).
  void set_coeffs(kernels::Comp c, int slice, int cls, std::complex<double> t,
                  std::complex<double> cv);

  /// Component c's table slice, interleaved doubles: class k's entry is
  /// doubles [2k, 2k + 1].
  const double* t_slice(kernels::Comp c, int slice) const {
    return t_[kernels::idx(c)].data() + 2 * static_cast<std::size_t>(slice) * num_classes_;
  }
  const double* c_slice(kernels::Comp c, int slice) const {
    return c_[kernels::idx(c)].data() + 2 * static_cast<std::size_t>(slice) * num_classes_;
  }

  /// Class ids, one per padded cell, indexed like the fields (Layout::at).
  /// Writers keep every id below the class count of the last reset.
  std::uint8_t* classes() { return cls_.data(); }
  const std::uint8_t* classes() const { return cls_.data(); }

  /// The t and c a cell of component c reads.
  std::complex<double> t_at(kernels::Comp c, int i, int j, int k) const;
  std::complex<double> c_at(kernels::Comp c, int i, int j, int k) const;

  // ---- sources ---------------------------------------------------------

  /// Row (j, k) of source array s (0..3, see kernels::kSourceNames) at
  /// interior x = 0: the stored plane's row, or the shared zero row when
  /// plane k is not stored.
  const double* source_row(int s, int j, int k) const;

  /// Source s at a cell: +0.0 off the stored planes.
  std::complex<double> source_at(int s, int i, int j, int k) const;

  /// Write source s at a cell, storing its z-plane (zeroed) first if needed.
  void set_source(int s, int i, int j, int k, std::complex<double> v);

  /// Drop every stored source plane.
  void clear_sources();

  // ---- whole-set operations ------------------------------------------

  /// Zero all 12 field arrays (coefficients and sources untouched).
  void clear_fields();

  /// Return to the state of a freshly constructed set, memory footprint
  /// included, so pooled sets can be recycled across simulations without
  /// allocator churn.  The x boundary is kept.
  void clear_all();

  /// Copy the 12 field arrays from another set (layouts must match).
  void copy_fields_from(const FieldSet& other);

  /// Shard-view slicing: copy `count` z-planes of the 12 field arrays from
  /// `src` planes [k_src, ...) into [k_dst, ...).  See
  /// Field::copy_z_planes_from for plane semantics; layouts may differ in nz.
  void copy_field_planes_from(const FieldSet& src, int k_src, int k_dst, int count);

  /// The same plane copy for the static state: class ids, source planes
  /// (stored or not) and each plane's z-slice, so a shard's z-axis rows
  /// read the slice of their global plane.  The coefficient tables are
  /// copied whole; planes outside the range keep their class ids and
  /// slices.  Used at shard setup.
  void copy_static_planes_from(const FieldSet& src, int k_src, int k_dst, int count);

  /// Max abs elementwise difference over all 12 field arrays.
  static double max_field_diff(const FieldSet& a, const FieldSet& b);

  /// Total allocated bytes: fields, class ids, tables and stored planes.
  std::size_t allocated_bytes() const;

  XBoundary x_boundary() const { return x_boundary_; }
  void set_x_boundary(XBoundary bc) { x_boundary_ = bc; }

 private:
  using Doubles = std::vector<double, util::AlignedAllocator<double>>;

  /// Offset in doubles, within component c's table, of the entry cell
  /// (i, j, k) reads.
  std::size_t entry_of(kernels::Comp c, int i, int j, int k) const;
  /// Offset in doubles of row (j, k)'s interior x = 0 within its z-plane.
  std::size_t in_plane(int j, int k) const;
  const Doubles& plane(int s, int k) const {
    return src_[static_cast<std::size_t>(s)][static_cast<std::size_t>(k + layout_.halo())];
  }
  Doubles& plane(int s, int k) {
    return src_[static_cast<std::size_t>(s)][static_cast<std::size_t>(k + layout_.halo())];
  }

  Layout layout_{};
  XBoundary x_boundary_ = XBoundary::Dirichlet;
  std::array<Field, kernels::kNumComps> fields_;

  std::vector<std::uint8_t, util::AlignedAllocator<std::uint8_t>> cls_;
  int num_classes_ = 1;
  std::array<std::vector<int>, 3> slice_of_;  // per axis, padded positions
  std::array<int, 3> num_slices_{1, 1, 1};
  std::array<Doubles, kernels::kNumComps> t_;  // slices x classes entries
  std::array<Doubles, kernels::kNumComps> c_;

  std::array<std::vector<Doubles>, kernels::kNumSources> src_;  // per padded z-plane
  Doubles zero_row_;
};

}  // namespace emwd::grid
