#include "models/code_balance.hpp"

namespace emwd::models {

double diamond_bytes_per_lup(int dw, double arrays) {
  const double writes = 6.0 * (2.0 * dw - 1.0);
  const double reads = arrays * dw + 12.0;
  const double area = dw * dw / 2.0;
  return 16.0 * (writes + reads) / area;
}

double diamond_bytes_per_lup_exact(int dw) {
  // This implementation's tiles write all twelve components over dw
  // y-columns each (12*dw complex numbers per x-z cell) and read the paper's
  // 40 arrays over dw columns plus a one-column halo of the 12 field arrays on
  // each staggered side.
  const double writes = 12.0 * dw;
  const double reads = kPaperArrays * dw + 12.0;
  const double area = dw * dw / 2.0;
  return 16.0 * (writes + reads) / area;
}

}  // namespace emwd::models
