// Reproduces the paper's Sec. III analysis table: code balance, arithmetic
// intensity and the Eq. 10 bandwidth-bottleneck prediction for the naive,
// spatially blocked and diamond-tiled kernels — models first, then the same
// quantities "measured" by cache-simulator replay of the real access
// streams.
//
// Paper anchors:  B_C naive  = 1344 B/LUP (Eq. 8),  I = 0.18 flops/B
//                 B_C spatial = 1216 B/LUP (Eq. 9),  I = 0.20 flops/B
//                 Pmem = 50 GB/s / 1216 = 41 MLUP/s (Eq. 10)
//                 storage 640 B/cell, 248 flops/LUP
// The storage row prints the paper's count beside the bytes per cell a
// FieldSet actually allocates.
#include "common.hpp"

#include "grid/fieldset.hpp"

int main(int argc, char** argv) {
  using namespace emwd;
  using namespace emwd::bench;

  util::Cli cli;
  cli.add_flag("n", "scaled grid size for replay", "32");
  cli.add_flag("steps", "replay time steps", "3");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n", cli.error().c_str());
    return 1;
  }
  const int n = static_cast<int>(cli.get_int("n", 32));
  const int steps = static_cast<int>(cli.get_int("steps", 3));

  banner("bench_analysis", "paper Sec. III analysis (Eqs. 8, 9, 10, 12)");

  // The models count the paper's 40 arrays; a FieldSet stores fields, class
  // ids, tables and the written source planes only (grid/fieldset.hpp).
  const grid::FieldSet state(grid::Layout({n, n, n}));
  std::printf("static properties:\n");
  std::printf("  arrays per cell        : %d (paper: 12 fields + 28 coefficients)\n",
              models::kPaperArrays);
  std::printf("  bytes per cell         : %d (paper: 640)\n", models::kPaperBytesPerCell);
  std::printf("  FieldSet bytes per cell: %.1f allocated per padded cell at n=%d\n",
              static_cast<double>(state.allocated_bytes()) /
                  static_cast<double>(state.layout().padded_cells()),
              n);
  std::printf("  flops per LUP          : %d (paper: 248)\n\n", models::kFlopsPerLup);

  const models::Machine hsw = models::haswell18();

  util::Table model({"variant", "model B/LUP", "intensity flops/B", "Pmem MLUP/s @50GB/s"});
  model.add_row({"naive (Eq.8)", util::fmt_double(models::naive_bytes_per_lup(), 6),
                 util::fmt_double(models::intensity(models::naive_bytes_per_lup()), 3),
                 util::fmt_double(
                     models::pmem_mlups(hsw.bandwidth_bytes_per_s,
                                        models::naive_bytes_per_lup()),
                     4)});
  model.add_row({"spatial (Eq.9)", util::fmt_double(models::spatial_bytes_per_lup(), 6),
                 util::fmt_double(models::intensity(models::spatial_bytes_per_lup()), 3),
                 util::fmt_double(
                     models::pmem_mlups(hsw.bandwidth_bytes_per_s,
                                        models::spatial_bytes_per_lup()),
                     4)});
  for (int dw : {4, 8, 12, 16}) {
    const double bpl = models::diamond_bytes_per_lup(dw);
    model.add_row({"diamond dw=" + std::to_string(dw) + " (Eq.12)",
                   util::fmt_double(bpl, 6), util::fmt_double(models::intensity(bpl), 3),
                   util::fmt_double(models::pmem_mlups(hsw.bandwidth_bytes_per_s, bpl), 4)});
  }
  model.print(std::cout, "analytic code balance models");

  // Measured counterparts via cache-simulator replay.  The streaming cases
  // use a deliberately small LLC (layers do not fit); the diamond case a
  // tile-sized one.
  const grid::Extents g{n, n, n};
  util::Table meas({"variant", "LLC MiB", "measured B/LUP", "model B/LUP", "ratio"});
  {
    const std::uint64_t llc = 1ull << 16;
    const double bpl = measured_naive_bpl(g, llc, steps);
    meas.add_row({"naive", util::fmt_double(llc / 1048576.0, 3), util::fmt_double(bpl, 6),
                  util::fmt_double(models::naive_bytes_per_lup(), 6),
                  util::fmt_double(bpl / models::naive_bytes_per_lup(), 3)});
  }
  {
    const std::uint64_t llc = 1ull << 18;
    const double bpl = measured_spatial_bpl(g, /*block_y=*/8, llc, steps);
    meas.add_row({"spatial by=8", util::fmt_double(llc / 1048576.0, 3),
                  util::fmt_double(bpl, 6),
                  util::fmt_double(models::spatial_bytes_per_lup(), 6),
                  util::fmt_double(bpl / models::spatial_bytes_per_lup(), 3)});
  }
  for (int dw : {4, 8}) {
    exec::MwdParams p;
    p.dw = dw;
    p.bz = 2;
    const std::uint64_t llc = scaled_haswell().llc_bytes;
    const double bpl = measured_mwd_bpl(g, p, llc, 2 * dw);
    const double m = models::diamond_bytes_per_lup(dw);
    meas.add_row({"diamond dw=" + std::to_string(dw),
                  util::fmt_double(llc / 1048576.0, 3), util::fmt_double(bpl, 6),
                  util::fmt_double(m, 6), util::fmt_double(bpl / m, 3)});
  }
  meas.print(std::cout, "cache-simulator measured code balance");

  std::printf("paper check: spatial prediction %.1f MLUP/s vs paper's measured ~40.\n",
              models::pmem_mlups(hsw.bandwidth_bytes_per_s,
                                 models::spatial_bytes_per_lup()));
  return 0;
}
