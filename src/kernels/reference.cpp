#include "kernels/reference.hpp"

#include "kernels/update.hpp"

namespace emwd::kernels {

void reference_component_sweep(grid::FieldSet& fs, Comp comp) {
  const grid::Layout& layout = fs.layout();
  for (int k = 0; k < layout.nz(); ++k) {
    update_comp_rows(fs, comp, 0, layout.nx(), 0, layout.ny(), k);
  }
}

void reference_half_step(grid::FieldSet& fs, bool h_phase) {
  const auto& comps = h_phase ? kHComps : kEComps;
  for (Comp c : comps) reference_component_sweep(fs, c);
}

void reference_step(grid::FieldSet& fs, int steps) {
  for (int s = 0; s < steps; ++s) {
    reference_half_step(fs, /*h_phase=*/true);
    reference_half_step(fs, /*h_phase=*/false);
  }
}

}  // namespace emwd::kernels
