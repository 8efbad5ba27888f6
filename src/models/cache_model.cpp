#include "models/cache_model.hpp"

#include "tiling/wavefront.hpp"

namespace emwd::models {

double cache_block_bytes(int dw, int bz, int nx, double arrays) {
  const double area = dw * static_cast<double>(dw) / 2.0 +
                      static_cast<double>(dw) * (bz - 1);
  const double halo = 12.0 * (dw + tiling::wavefront_width(dw, bz));
  return 16.0 * nx * (arrays * area + halo);
}

bool fits_cache(int dw, int bz, int nx, std::uint64_t llc_bytes, int num_tgs) {
  const double usable = usable_cache_fraction() * static_cast<double>(llc_bytes);
  return cache_block_bytes(dw, bz, nx) * num_tgs <= usable;
}

int max_dw_fitting(int bz, int nx, std::uint64_t llc_bytes, int num_tgs, int dw_limit) {
  int best = 0;
  for (int dw = 1; dw <= dw_limit; ++dw) {
    if (fits_cache(dw, bz, nx, llc_bytes, num_tgs)) best = dw;
  }
  return best;
}

}  // namespace emwd::models
