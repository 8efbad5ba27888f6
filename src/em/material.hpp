// Material model for the solar-cell simulations.
//
// THIIM's selling point (paper Sec. I-A, V) is that measured complex optical
// constants — including negative-real-permittivity metals like the silver
// back contact — are used directly in the frequency domain, with the "back
// iteration" (Eq. 5) applied wherever Re(eps) < 0.  Materials are stored as
// a palette plus a per-cell palette index, which keeps the material map at
// one byte per cell.  build_coefficients copies that index into the
// FieldSet as the cell's coefficient class, so the palette's at most 256
// entries are also the coefficient tables' classes (under x-PML, the class
// pairs the index with the cell's x-PML position).
#pragma once

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "grid/layout.hpp"

namespace emwd::em {

struct Material {
  std::string name = "vacuum";
  std::complex<double> eps{1.0, 0.0};  // relative permittivity (can be negative/complex)
  double mu = 1.0;                     // relative permeability
  double sigma = 0.0;                  // electric conductivity
  double sigma_star = 0.0;             // magnetic conductivity (PML matching)

  /// True when the THIIM back iteration (paper Eq. 5) must be used.
  bool needs_back_iteration() const { return eps.real() < 0.0; }
};

/// Common presets (normalized units, representative optical constants at
/// visible wavelengths; see the solar-cell example for provenance).
Material vacuum();
Material glass();                   // SiO2, n ~ 1.5
Material tco();                     // transparent conductive oxide, slightly lossy
Material amorphous_silicon();       // a-Si:H, absorbing
Material microcrystalline_silicon();// uc-Si:H
Material silver();                  // Re(eps) < 0 -> exercises back iteration

class MaterialGrid {
 public:
  MaterialGrid() = default;
  explicit MaterialGrid(const grid::Layout& layout);

  const grid::Layout& layout() const { return layout_; }

  /// Register a material; returns its palette id (max 255 materials).
  std::uint8_t add(const Material& m);

  /// Fill the whole interior with material id.
  void fill(std::uint8_t id);

  void set(int i, int j, int k, std::uint8_t id);
  std::uint8_t id_at(int i, int j, int k) const;
  const Material& at(int i, int j, int k) const;
  const Material& material(std::uint8_t id) const { return palette_.at(id); }
  std::size_t palette_size() const { return palette_.size(); }

  /// Number of interior cells carrying each palette id.
  std::vector<std::size_t> census() const;

 private:
  grid::Layout layout_{};
  std::vector<Material> palette_;
  std::vector<std::uint8_t> ids_;  // padded-layout indexed, halo mirrors boundary
};

}  // namespace emwd::em
