// Unit tests for layouts, fields and the compact THIIM state set.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <memory>
#include <thread>
#include <vector>

#include "em/coefficients.hpp"
#include "grid/field.hpp"
#include "grid/fieldset.hpp"
#include "grid/layout.hpp"
#include "kernels/update.hpp"

namespace {

using namespace emwd;
using grid::Extents;
using grid::Field;
using grid::FieldSet;
using grid::Layout;

TEST(Layout, ExtentsAndStrides) {
  Layout L({5, 6, 7});
  EXPECT_EQ(L.nx(), 5);
  EXPECT_EQ(L.ny(), 6);
  EXPECT_EQ(L.nz(), 7);
  EXPECT_EQ(L.halo(), 1);
  EXPECT_EQ(L.stride_x(), 1);
  EXPECT_GE(L.stride_y(), 5 + 2);
  EXPECT_EQ(L.stride_z(), L.stride_y() * L.py());
  // Rows padded to 4 complex cells (one cache line of doubles).
  EXPECT_EQ(L.stride_y() % 4, 0);
}

TEST(Layout, IndexingIsAffineAndHaloAddressable) {
  Layout L({4, 5, 6});
  EXPECT_EQ(L.at(1, 0, 0) - L.at(0, 0, 0), 1u);
  EXPECT_EQ(L.at(0, 1, 0) - L.at(0, 0, 0), static_cast<std::size_t>(L.stride_y()));
  EXPECT_EQ(L.at(0, 0, 1) - L.at(0, 0, 0), static_cast<std::size_t>(L.stride_z()));
  EXPECT_TRUE(L.addressable(-1, -1, -1));
  EXPECT_TRUE(L.addressable(4, 5, 6));
  EXPECT_FALSE(L.addressable(5, 0, 0));
  EXPECT_TRUE(L.contains(3, 4, 5));
  EXPECT_FALSE(L.contains(4, 0, 0));
  EXPECT_FALSE(L.contains(-1, 0, 0));
}

TEST(Layout, RejectsBadArguments) {
  EXPECT_THROW(Layout({0, 4, 4}), std::invalid_argument);
  EXPECT_THROW(Layout({4, -1, 4}), std::invalid_argument);
  EXPECT_THROW(Layout({4, 4, 4}, 0), std::invalid_argument);
}

TEST(Layout, DistinctCellsDistinctIndices) {
  Layout L({3, 4, 5});
  std::vector<std::size_t> seen;
  for (int k = -1; k <= 5; ++k)
    for (int j = -1; j <= 4; ++j)
      for (int i = -1; i <= 3; ++i) seen.push_back(L.at(i, j, k));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_LE(seen.back(), L.padded_cells() - 1);
}

TEST(Field, SetAtRoundTrip) {
  Layout L({4, 4, 4});
  Field f(L);
  f.set(1, 2, 3, {1.5, -2.5});
  EXPECT_EQ(f.at(1, 2, 3), std::complex<double>(1.5, -2.5));
  EXPECT_EQ(f.at(0, 0, 0), std::complex<double>(0.0, 0.0));
}

TEST(Field, InterleavedLayoutMatchesPaperListing) {
  // data[2p] is the real part, data[2p+1] the imaginary part.
  Layout L({4, 4, 4});
  Field f(L);
  f.set(2, 1, 1, {3.0, 4.0});
  const std::size_t p = L.at(2, 1, 1);
  EXPECT_DOUBLE_EQ(f.data()[2 * p], 3.0);
  EXPECT_DOUBLE_EQ(f.data()[2 * p + 1], 4.0);
}

TEST(Field, Norm) {
  Layout L({2, 2, 2});
  Field a(L);
  a.set(0, 0, 0, {3.0, 4.0});
  a.set(-1, 0, 0, {9.0, 9.0});  // halo excluded
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(FieldSet, StateIsAbout193BytesPerCell) {
  // 12 complex field arrays plus one class byte per padded cell; tables,
  // slice maps and the zero row add a few hundred bytes per set.
  Layout L({16, 16, 16});
  FieldSet fs(L);
  const double per_cell =
      static_cast<double>(fs.allocated_bytes()) / static_cast<double>(L.padded_cells());
  EXPECT_GE(per_cell, 193.0);
  EXPECT_LT(per_cell, 194.0);
}

TEST(FieldSet, SourceMapping) {
  using kernels::Comp;
  // The four z-shift components own the four source arrays.
  EXPECT_EQ(kernels::info(Comp::Exy).src_index, 0);
  EXPECT_EQ(kernels::info(Comp::Eyx).src_index, 1);
  EXPECT_EQ(kernels::info(Comp::Hxy).src_index, 2);
  EXPECT_EQ(kernels::info(Comp::Hyx).src_index, 3);
  // All others have none.
  EXPECT_EQ(kernels::info(Comp::Exz).src_index, -1);
  EXPECT_EQ(kernels::info(Comp::Hzy).src_index, -1);

  // The row update reads that mapping: with t = c = 0 a cell becomes its
  // source term, so a value in array s reaches its owner and nothing else.
  Layout L({4, 4, 4});
  for (int s = 0; s < kernels::kNumSources; ++s) {
    FieldSet fs(L);
    fs.set_source(s, 1, 2, 2, {0.5, -0.25});
    for (const auto& ci : kernels::kComps) kernels::update_comp_rows(fs, ci.self, 0, 4, 2, 3, 2);
    for (const auto& ci : kernels::kComps) {
      const std::complex<double> want =
          ci.src_index == s ? std::complex<double>(0.5, -0.25) : std::complex<double>(0.0, 0.0);
      EXPECT_EQ(fs.field(ci.self).at(1, 2, 2), want) << "source " << s << ", " << ci.name;
    }
  }
}

TEST(FieldSet, SourcesStoreOnlyWrittenPlanes) {
  Layout L({4, 4, 4});
  FieldSet fs(L);
  const std::size_t fresh = fs.allocated_bytes();
  const std::size_t plane_bytes = 2 * sizeof(double) * static_cast<std::size_t>(L.stride_z());
  fs.set_source(3, 1, 2, 2, {0.5, -0.25});
  fs.set_source(3, 2, 2, 2, {0.0, 1.0});  // same plane
  EXPECT_EQ(fs.allocated_bytes(), fresh + plane_bytes);
  EXPECT_EQ(fs.source_at(3, 2, 2, 2), std::complex<double>(0.0, 1.0));
  EXPECT_EQ(fs.source_at(3, 1, 2, 2), std::complex<double>(0.5, -0.25));
  EXPECT_EQ(fs.source_at(3, 3, 2, 2), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(fs.source_at(0, 1, 2, 2), std::complex<double>(0.0, 0.0));
  // Rows without a stored plane read the zero row: +0.0, not -0.0.
  const double* row = fs.source_row(3, 1, 1);
  for (int i = 0; i < L.nx(); ++i) {
    EXPECT_FALSE(std::signbit(row[2 * i]));
    EXPECT_EQ(row[2 * i], 0.0);
  }
}

TEST(FieldSet, ClearAllRestoresAFreshSetsFootprint) {
  Layout L({6, 5, 7});
  FieldSet fresh(L), fs(L);
  em::build_random_stable(fs, 3);
  // Every interior plane of all four sources is stored.
  const std::size_t plane_bytes = 2 * sizeof(double) * static_cast<std::size_t>(L.stride_z());
  EXPECT_GE(fs.allocated_bytes(),
            fresh.allocated_bytes() + kernels::kNumSources * 7 * plane_bytes);
  fs.clear_all();
  EXPECT_EQ(fs.allocated_bytes(), fresh.allocated_bytes());
  EXPECT_EQ(fs.t_at(kernels::Comp::Hyx, 2, 2, 2), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(FieldSet::max_field_diff(fs, fresh), 0.0);
}

TEST(FieldSet, CopyAndDiff) {
  Layout L({4, 4, 4});
  FieldSet a(L), b(L);
  a.field(kernels::Comp::Hyx).set(1, 1, 1, {2.0, 0.0});
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 2.0);
  b.copy_fields_from(a);
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 0.0);
  // Coefficients are not part of copy_fields_from.
  a.set_coeffs(kernels::Comp::Hyx, 0, 0, {9.0, 0.0}, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 0.0);
  FieldSet c(Layout({5, 4, 4}));
  EXPECT_THROW(c.copy_fields_from(a), std::invalid_argument);
  EXPECT_THROW(FieldSet::max_field_diff(c, a), std::invalid_argument);
}

TEST(FieldSet, ClearFieldsKeepsCoefficients) {
  Layout L({3, 3, 3});
  FieldSet fs(L);
  fs.field(kernels::Comp::Exy).set(0, 0, 0, {1.0, 1.0});
  fs.set_coeffs(kernels::Comp::Exy, 0, 0, {1.0, 0.0}, {5.0, 5.0});
  fs.clear_fields();
  EXPECT_EQ(fs.field(kernels::Comp::Exy).at(0, 0, 0), std::complex<double>(0, 0));
  EXPECT_EQ(fs.c_at(kernels::Comp::Exy, 0, 0, 0), std::complex<double>(5, 5));
}

// ---- split storage ---------------------------------------------------------

/// `fs`'s field values handed to two parts: one owns planes [0, 3) at local
/// 0, the other owns [3, nz) and stores plane 2 as its local plane 0.
std::shared_ptr<grid::FieldParts> two_parts(const FieldSet& fs) {
  const Layout& L = fs.layout();
  constexpr int kCut = 3;
  auto lo = std::make_unique<FieldSet>(Layout({L.nx(), L.ny(), kCut}));
  lo->copy_field_planes_from(fs, 0, 0, kCut);
  auto hi = std::make_unique<FieldSet>(Layout({L.nx(), L.ny(), L.nz() - kCut + 1}));
  hi->copy_field_planes_from(fs, kCut - 1, 0, L.nz() - kCut + 1);
  auto parts = std::make_shared<grid::FieldParts>();
  parts->parts.push_back({std::move(lo), 0, kCut, 0});
  parts->parts.push_back({std::move(hi), kCut, L.nz(), kCut - 1});
  return parts;
}

std::size_t part_bytes(const grid::FieldParts& parts) {
  std::size_t total = 0;
  for (const grid::FieldParts::Part& p : parts.parts) total += p.set->allocated_bytes();
  return total;
}

TEST(FieldSet, SplitSetReadsItsPartsUntilAWriteJoinsIt) {
  const Layout L({5, 4, 7});
  FieldSet fs(L);
  em::build_random_stable(fs, 11);
  fs.field(kernels::Comp::Hzy).set(-1, 2, 4, {7.0, 8.0});  // x halo travels with its plane
  const FieldSet original(fs);
  const std::size_t joined_bytes = fs.allocated_bytes();
  const auto parts = two_parts(fs);
  fs.split(parts);
  EXPECT_EQ(fs.parts(), parts.get());
  EXPECT_EQ(parts->holders.load(), 1);
  EXPECT_EQ(fs.allocated_bytes(),
            joined_bytes - kernels::kNumComps * Field(L).size_bytes() + part_bytes(*parts));

  for (const auto& ci : kernels::kComps) {
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* got = fs.row(ci.self, j, k);
        const double* want = original.row(ci.self, j, k);
        for (int i = 0; i < 2 * L.nx(); ++i) ASSERT_EQ(got[i], want[i]) << ci.name;
      }
    }
  }
  // Copies, diffs and the static readers leave the set split.
  const FieldSet copy(fs);
  EXPECT_EQ(copy.parts(), nullptr);
  EXPECT_EQ(FieldSet::max_field_diff(copy, original), 0.0);
  FieldSet target(L);
  target.copy_fields_from(fs);
  EXPECT_EQ(FieldSet::max_field_diff(target, original), 0.0);
  EXPECT_EQ(fs.t_at(kernels::Comp::Eyx, 1, 2, 3), original.t_at(kernels::Comp::Eyx, 1, 2, 3));
  EXPECT_EQ(fs.parts(), parts.get());

  // A write joins: the arrays come back whole and the parts are let go.
  fs.set_coeffs(kernels::Comp::Exy, 0, 0, {1.0, 0.0}, {0.0, 0.0});
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(parts->holders.load(), 0);
  EXPECT_EQ(fs.allocated_bytes(), joined_bytes);
  EXPECT_EQ(fs.field(kernels::Comp::Hzy).at(-1, 2, 4), std::complex<double>(7.0, 8.0));
  EXPECT_EQ(FieldSet::max_field_diff(fs, original), 0.0);
}

TEST(FieldSet, ClearingASplitSetLetsGoOfItsParts) {
  const Layout L({5, 4, 7});
  FieldSet fs(L);
  em::build_random_stable(fs, 13);
  const FieldSet original(fs);
  auto parts = two_parts(fs);
  fs.split(parts);
  fs.clear_fields();
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(parts->holders.load(), 0);
  EXPECT_EQ(FieldSet::max_field_diff(fs, FieldSet(L)), 0.0);
  EXPECT_EQ(fs.c_at(kernels::Comp::Hxz, 2, 1, 5), original.c_at(kernels::Comp::Hxz, 2, 1, 5));

  fs.split(two_parts(original));
  fs.clear_all();
  EXPECT_EQ(fs.parts(), nullptr);
  EXPECT_EQ(fs.allocated_bytes(), FieldSet(L).allocated_bytes());
}

TEST(FieldSet, ConcurrentFieldCallsJoinASplitSetOnce) {
  // An engine's threads each call field() on the set they run on: the first
  // joins it, the others must see the joined arrays.
  const Layout L({6, 5, 8});
  FieldSet fs(L);
  em::build_random_stable(fs, 17);
  const FieldSet original(fs);
  fs.split(two_parts(fs));
  constexpr int kThreads = 4;
  std::vector<std::array<const double*, kernels::kNumComps>> seen(kThreads);
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&fs, &seen, t] {
      for (const auto& ci : kernels::kComps) seen[t][kernels::idx(ci.self)] = fs.field(ci.self).data();
    });
  }
  for (std::thread& th : team) th.join();
  EXPECT_EQ(fs.parts(), nullptr);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(FieldSet::max_field_diff(fs, original), 0.0);
}

}  // namespace
