// Code balance models (paper Sec. III).
//
// The code balance B_C is the DRAM traffic per lattice-site update.  The
// paper derives:
//   naive   (Eq. 8):  4*(18+12+12)*8 = 1344 bytes/LUP
//   spatial (Eq. 9):  4*(14+12+12)*8 = 1216 bytes/LUP
//   diamond (Eq. 12): 16*[6*(2*Dw-1) + (40*Dw+12)] / (Dw^2/2)
// and the arithmetic intensity I = 248 flops / B_C.
//
// These equations count the paper's 40 streamed arrays (kPaperArrays) by
// default.  The engines stream fewer: a FieldSet holds the 12 field arrays,
// a byte of coefficient class per cell, small t/c tables and only the
// written source planes (grid/fieldset.hpp), kEngineArrays in all.  The
// tuner's calibrated host model counts those; the paper machine keeps 40.
#pragma once

namespace emwd::models {

/// DP flops per lattice-site update (4 nests at 22 + 8 nests at 20).
constexpr int kFlopsPerLup = 248;

/// Domain-sized double-complex arrays of the paper's update (Sec. III): the
/// 12 split components, a t and a c coefficient array per component and 4
/// source arrays (4*3 + 8*2 = 28 static arrays).
constexpr int kPaperArrays = 40;

/// What the engines stream per cell, in 16-byte complex arrays: the 12
/// field components plus one byte of coefficient class.
constexpr double kEngineArrays = 12.0 + 1.0 / 16.0;

/// The paper's state per grid cell: 16 bytes per complex array (Sec. I-A).
constexpr int kPaperBytesPerCell = 16 * kPaperArrays;

/// Eq. 8: every loop nest streams from DRAM; the four z-shift nests pay 18
/// doubles (2 write + 12 base reads + 4 shifted reads), the rest 12.
constexpr double naive_bytes_per_lup() { return 4.0 * (18 + 12 + 12) * 8.0; }

/// Eq. 9: the layer condition removes the 4 shifted doubles of the z-shift
/// nests.  "Optimal spatial blocking".
constexpr double spatial_bytes_per_lup() { return 4.0 * (14 + 12 + 12) * 8.0; }

/// Eq. 12: temporally blocked traffic for diamond width dw.  Writes: six Ĥ
/// components over dw y-columns plus six Ê over dw-1; reads: all `arrays`
/// streamed arrays over dw columns plus one halo column of the 12
/// components; amortized over the dw^2/2 LUPs of the diamond.
double diamond_bytes_per_lup(int dw, double arrays = kPaperArrays);

/// Same counting adapted to this implementation's exact tile geometry: both
/// Ê and Ĥ footprints span dw y-columns, so a tile writes 12*dw complex
/// numbers per x-z cell where Eq. 12 counts 6*(2*dw - 1).
double diamond_bytes_per_lup_exact(int dw);

/// Arithmetic intensity in flops/byte for a given code balance.
constexpr double intensity(double bytes_per_lup) { return kFlopsPerLup / bytes_per_lup; }

/// Eq. 10: bandwidth-bottleneck performance limit in MLUP/s.
constexpr double pmem_mlups(double bandwidth_bytes_per_s, double bytes_per_lup) {
  return bandwidth_bytes_per_s / bytes_per_lup / 1e6;
}

}  // namespace emwd::models
