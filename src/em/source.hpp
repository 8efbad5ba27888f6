// Time-harmonic source injection.
//
// THIIM sources are phasors: the Src arrays hold the *pre-scaled* source
// term tau*S/denom that the kernel adds verbatim each iteration (paper
// Listings 1/2: `+SrcHy[i]`).  The four source arrays live on the four
// z-shift components (SrcEx -> Exy, SrcEy -> Eyx, SrcHx -> Hxy,
// SrcHy -> Hyx), which is exactly what a z-propagating incident plane wave
// needs — the paper's solar-cell setup illuminates from the top.  A
// FieldSet stores only the z-planes a source was written to.
#pragma once

#include <complex>

#include "em/coefficients.hpp"
#include "em/material.hpp"
#include "em/pml.hpp"
#include "grid/fieldset.hpp"

namespace emwd::em {

enum class SourceField { Ex, Ey, Hx, Hy };

/// Add a plane-wave current sheet at z-plane `k0`: amplitude into the chosen
/// field's source array over the full x-y extent.  The stored value is
/// scaled by the per-cell THIIM source factor.
void add_plane_wave(grid::FieldSet& fs, const MaterialGrid& mats, const PmlProfiles& pml,
                    const ThiimParams& p, SourceField which, int k0,
                    std::complex<double> amplitude);

/// Add a point dipole at cell (i, j, k).
void add_point_dipole(grid::FieldSet& fs, const MaterialGrid& mats, const PmlProfiles& pml,
                      const ThiimParams& p, SourceField which, int i, int j, int k,
                      std::complex<double> amplitude);

}  // namespace emwd::em
