#include "grid/fieldset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emwd::grid {

FieldSet::FieldSet(const Layout& layout)
    : layout_(layout),
      cls_(layout.padded_cells(), 0),
      zero_row_(2 * static_cast<std::size_t>(layout.stride_y()), 0.0) {
  for (auto& f : store_.fields) f = Field(layout);
  for (auto& planes : src_) planes.resize(static_cast<std::size_t>(layout.pz()));
  reset_coefficients(1);
}

// ---- split storage -------------------------------------------------------

FieldSet::Store::Store(Store&& o) noexcept
    : fields(std::move(o.fields)),
      parts(std::move(o.parts)),
      split(o.split.load(std::memory_order_relaxed)) {
  o.split.store(false, std::memory_order_relaxed);
}

void FieldSet::Store::copy_to(std::array<Field, kernels::kNumComps>& out) const {
  if (!split.load(std::memory_order_acquire)) {
    out = fields;
    return;
  }
  for (int c = 0; c < kernels::kNumComps; ++c) {
    out[c] = Field(fields[c].layout());
    for (const FieldParts::Part& p : parts->parts) {
      out[c].copy_z_planes_from(p.set->field(static_cast<kernels::Comp>(c)), p.z0 - p.first,
                                p.z0, p.z1 - p.z0);
    }
  }
}

void FieldSet::Store::let_go() {
  if (parts) {
    parts->holders.fetch_sub(1, std::memory_order_release);
    parts.reset();
  }
  split.store(false, std::memory_order_release);
}

void FieldSet::split(std::shared_ptr<const FieldParts> parts) {
  int z = 0;
  for (const FieldParts::Part& p : parts->parts) {
    const Layout& l = p.set->layout();
    if (p.z0 != z || p.z1 <= p.z0 || p.z0 - p.first < 0 || p.z1 - p.first > l.nz() ||
        l.nx() != layout_.nx() || l.ny() != layout_.ny() || l.halo() != layout_.halo()) {
      throw std::invalid_argument("split: parts do not tile the set's planes");
    }
    z = p.z1;
  }
  if (z != layout_.nz()) throw std::invalid_argument("split: parts do not tile the set's planes");
  store_.let_go();
  parts->holders.fetch_add(1, std::memory_order_relaxed);
  store_.parts = std::move(parts);
  for (auto& f : store_.fields) f.release();
  store_.split.store(true, std::memory_order_release);
}

void FieldSet::join_parts() const {
  const std::lock_guard<std::mutex> lock(store_.join_mu);
  if (!store_.split.load(std::memory_order_relaxed)) return;  // another thread joined
  store_.copy_to(store_.fields);
  store_.let_go();
}

const double* FieldSet::part_row(kernels::Comp c, int j, int k) const {
  const std::vector<FieldParts::Part>& parts = store_.parts->parts;
  auto p = parts.begin();
  while (p + 1 != parts.end() && k >= p->z1) ++p;
  return p->set->row(c, j, k - p->first);
}

// ---- coefficients ----------------------------------------------------------

void FieldSet::reset_coefficients(int num_classes,
                                  const std::array<std::vector<int>, 3>& slice_of) {
  join();
  if (num_classes < 1 || num_classes > 256) {
    throw std::invalid_argument("reset_coefficients: classes must be in [1, 256]");
  }
  const int extent[3] = {layout_.nx(), layout_.ny(), layout_.nz()};
  for (int a = 0; a < 3; ++a) {
    const auto len = static_cast<std::size_t>(extent[a] + 2 * layout_.halo());
    if (slice_of[a].empty()) {
      slice_of_[a].assign(len, 0);
    } else if (slice_of[a].size() != len ||
               *std::min_element(slice_of[a].begin(), slice_of[a].end()) < 0) {
      throw std::invalid_argument("reset_coefficients: bad slice map");
    } else {
      slice_of_[a] = slice_of[a];
    }
    num_slices_[a] = *std::max_element(slice_of_[a].begin(), slice_of_[a].end()) + 1;
  }
  num_classes_ = num_classes;
  for (const auto& ci : kernels::kComps) {
    const std::size_t n =
        2 * static_cast<std::size_t>(num_slices(ci.axis)) * static_cast<std::size_t>(num_classes);
    t_[kernels::idx(ci.self)] = Doubles(n, 0.0);
    c_[kernels::idx(ci.self)] = Doubles(n, 0.0);
  }
  std::fill(cls_.begin(), cls_.end(), std::uint8_t{0});
}

void FieldSet::set_coeffs(kernels::Comp c, int slice, int cls, std::complex<double> t,
                          std::complex<double> cv) {
  join();
  if (slice < 0 || slice >= num_slices(kernels::info(c).axis) || cls < 0 ||
      cls >= num_classes_) {
    throw std::out_of_range("set_coeffs: entry outside the table");
  }
  const std::size_t e = 2 * (static_cast<std::size_t>(slice) * num_classes_ + cls);
  t_[kernels::idx(c)][e] = t.real();
  t_[kernels::idx(c)][e + 1] = t.imag();
  c_[kernels::idx(c)][e] = cv.real();
  c_[kernels::idx(c)][e + 1] = cv.imag();
}

std::size_t FieldSet::entry_of(kernels::Comp c, int i, int j, int k) const {
  const kernels::CompInfo& ci = kernels::info(c);
  const int s = slice(ci.axis, kernels::axis_position(ci.axis, i, j, k));
  return 2 * (static_cast<std::size_t>(s) * num_classes_ + cls_[layout_.at(i, j, k)]);
}

std::complex<double> FieldSet::t_at(kernels::Comp c, int i, int j, int k) const {
  const std::size_t e = entry_of(c, i, j, k);
  return {t_[kernels::idx(c)][e], t_[kernels::idx(c)][e + 1]};
}

std::complex<double> FieldSet::c_at(kernels::Comp c, int i, int j, int k) const {
  const std::size_t e = entry_of(c, i, j, k);
  return {c_[kernels::idx(c)][e], c_[kernels::idx(c)][e + 1]};
}

std::complex<double> FieldSet::source_at(int s, int i, int j, int k) const {
  const double* row = source_row(s, j, k);
  return {row[2 * i], row[2 * i + 1]};
}

void FieldSet::set_source(int s, int i, int j, int k, std::complex<double> v) {
  join();
  Doubles& p = plane(s, k);
  if (p.empty()) p.assign(2 * static_cast<std::size_t>(layout_.stride_z()), 0.0);
  double* cell = p.data() + in_plane(j, k) + 2 * static_cast<std::size_t>(i);
  cell[0] = v.real();
  cell[1] = v.imag();
}

void FieldSet::clear_sources() {
  join();
  for (auto& planes : src_) {
    for (auto& p : planes) Doubles().swap(p);
  }
}

void FieldSet::clear_fields() {
  if (store_.split.load(std::memory_order_relaxed)) {
    for (auto& f : store_.fields) f = Field(layout_);
    store_.let_go();
  } else {
    for (auto& f : store_.fields) f.clear();
  }
}

void FieldSet::clear_all() {
  clear_fields();
  reset_coefficients(1);
  clear_sources();
}

void FieldSet::copy_fields_from(const FieldSet& other) {
  if (!(layout_ == other.layout_)) {
    throw std::invalid_argument("copy_fields_from: layout mismatch");
  }
  if (&other == this) return;
  store_.let_go();  // every value is overwritten: no join needed
  other.store_.copy_to(store_.fields);
}

void FieldSet::copy_field_planes_from(const FieldSet& src, int k_src, int k_dst,
                                      int count) {
  for (const auto& ci : kernels::kComps) {
    field(ci.self).copy_z_planes_from(src.field(ci.self), k_src, k_dst, count);
  }
}

void FieldSet::copy_static_planes_from(const FieldSet& src, int k_src, int k_dst,
                                       int count) {
  join();
  check_plane_copy(src.layout_, layout_, k_src, k_dst, count);
  const int h = layout_.halo();
  num_classes_ = src.num_classes_;
  num_slices_ = src.num_slices_;
  t_ = src.t_;
  c_ = src.c_;
  slice_of_[0] = src.slice_of_[0];
  slice_of_[1] = src.slice_of_[1];
  std::copy_n(src.slice_of_[2].begin() + (k_src + h), count, slice_of_[2].begin() + (k_dst + h));

  const auto sz = static_cast<std::size_t>(layout_.stride_z());
  std::copy_n(src.cls_.data() + static_cast<std::size_t>(k_src + h) * sz,
              static_cast<std::size_t>(count) * sz,
              cls_.data() + static_cast<std::size_t>(k_dst + h) * sz);
  for (int s = 0; s < kernels::kNumSources; ++s) {
    for (int q = 0; q < count; ++q) {
      const Doubles& from = src.plane(s, k_src + q);
      Doubles& to = plane(s, k_dst + q);
      if (from.empty()) {
        Doubles().swap(to);
      } else {
        to = from;
      }
    }
  }
}

double FieldSet::max_field_diff(const FieldSet& a, const FieldSet& b) {
  if (!(a.layout_ == b.layout_)) {
    throw std::invalid_argument("max_field_diff: layout mismatch");
  }
  const Layout& L = a.layout_;
  double worst = 0.0;
  for (const auto& ci : kernels::kComps) {
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* ra = a.row(ci.self, j, k);
        const double* rb = b.row(ci.self, j, k);
        for (int i = 0; i < 2 * L.nx(); ++i) worst = std::max(worst, std::fabs(ra[i] - rb[i]));
      }
    }
  }
  return worst;
}

std::size_t FieldSet::allocated_bytes() const {
  std::size_t total = cls_.capacity() + zero_row_.capacity() * sizeof(double);
  for (const auto& f : store_.fields) total += f.size_bytes();  // 0 while split
  if (store_.parts) {
    for (const FieldParts::Part& p : store_.parts->parts) total += p.set->allocated_bytes();
  }
  for (int c = 0; c < kernels::kNumComps; ++c) {
    total += (t_[c].capacity() + c_[c].capacity()) * sizeof(double);
  }
  for (const auto& map : slice_of_) total += map.capacity() * sizeof(int);
  for (const auto& planes : src_) {
    for (const auto& p : planes) total += p.capacity() * sizeof(double);
  }
  return total;
}

}  // namespace emwd::grid
