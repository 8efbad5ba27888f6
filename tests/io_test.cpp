// Export module tests: slice CSV and VTK structure; snapshot format and
// the async SnapshotWriter (src/io/README.md is the normative spec).
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include "em/geometry.hpp"
#include "em/material.hpp"
#include "em/observables.hpp"
#include "io/export.hpp"
#include "io/snapshot.hpp"
#include "thiim/simulation.hpp"
#include "util/affinity.hpp"

namespace {

using namespace emwd;
using io::SliceAxis;

grid::FieldSet make_fields() {
  grid::Layout L({4, 3, 5});
  grid::FieldSet fs(L);
  fs.field(kernels::Comp::Exy).set(1, 2, 3, {3.0, 4.0});  // |Ex| = 5 there
  return fs;
}

TEST(IoExport, SliceHasHeaderAndAllCells) {
  const auto fs = make_fields();
  std::ostringstream os;
  io::write_E_magnitude_slice(os, fs, SliceAxis::Z, 3);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("u,v,E_mag\n", 0), 0u);
  // 4x3 cells + header.
  int lines = 0;
  for (char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 1 + 4 * 3);
  // The magnitude 5 appears on the slice through the set cell.
  EXPECT_NE(text.find("1,2,5"), std::string::npos);
}

TEST(IoExport, SliceAxesSelectCorrectPlanes) {
  const auto fs = make_fields();
  // Slice x=1 contains the cell; x=0 does not.
  std::ostringstream hit, miss;
  io::write_E_magnitude_slice(hit, fs, SliceAxis::X, 1);
  io::write_E_magnitude_slice(miss, fs, SliceAxis::X, 0);
  EXPECT_NE(hit.str().find(",5"), std::string::npos);
  EXPECT_EQ(miss.str().find(",5"), std::string::npos);
  // y slice too (u=i=1, v=k=3).
  std::ostringstream ys;
  io::write_E_magnitude_slice(ys, fs, SliceAxis::Y, 2);
  EXPECT_NE(ys.str().find("1,3,5"), std::string::npos);
}

TEST(IoExport, SliceOutOfRangeThrows) {
  const auto fs = make_fields();
  std::ostringstream os;
  EXPECT_THROW(io::write_E_magnitude_slice(os, fs, SliceAxis::Z, 5), std::out_of_range);
  EXPECT_THROW(io::write_E_magnitude_slice(os, fs, SliceAxis::X, -1), std::out_of_range);
}

TEST(IoExport, MaterialSliceNamesMaterials) {
  grid::Layout L({3, 3, 3});
  em::MaterialGrid mats(L);
  const auto ag = mats.add(em::silver());
  mats.set(1, 1, 1, ag);
  std::ostringstream os;
  io::write_material_slice(os, mats, SliceAxis::Z, 1);
  EXPECT_NE(os.str().find("silver"), std::string::npos);
  EXPECT_NE(os.str().find("vacuum"), std::string::npos);
}

TEST(IoExport, VtkHeaderAndCellCount) {
  const auto fs = make_fields();
  std::ostringstream os;
  io::write_E_magnitude_vtk(os, fs);
  const std::string text = os.str();
  EXPECT_NE(text.find("# vtk DataFile"), std::string::npos);
  EXPECT_NE(text.find("DIMENSIONS 4 3 5"), std::string::npos);
  EXPECT_NE(text.find("POINT_DATA 60"), std::string::npos);
  // 60 data lines after the LOOKUP_TABLE line.
  const auto table = text.find("LOOKUP_TABLE default\n");
  ASSERT_NE(table, std::string::npos);
  int lines = 0;
  for (std::size_t i = table + 21; i < text.size(); ++i) lines += (text[i] == '\n');
  EXPECT_EQ(lines, 60);
}

TEST(IoExport, FileWritersCreateFiles) {
  const auto fs = make_fields();
  const std::string path = testing::TempDir() + "/emwd_slice.csv";
  io::write_E_magnitude_slice_file(path, fs, SliceAxis::Z, 0);
  std::ifstream check(path);
  EXPECT_TRUE(check.good());
  EXPECT_THROW(
      io::write_E_magnitude_vtk_file("/nonexistent-dir/x.vtk", fs),
      std::runtime_error);
}

// ------------------------------------------------------------------
// Snapshot format v2 (see src/io/README.md for the byte-level spec).

grid::FieldSet make_snapshot_fields(double salt = 0.0) {
  grid::Layout L({5, 4, 6});
  grid::FieldSet fs(L);
  for (const auto& c : kernels::kComps) {
    for (int k = 0; k < 6; ++k) {
      for (int j = 0; j < 4; ++j) {
        for (int i = 0; i < 5; ++i) {
          fs.field(c.self).set(
              i, j, k,
              {salt + i + 10.0 * j + 100.0 * k + 1000.0 * kernels::idx(c.self),
               -0.25 * i + salt});
        }
      }
    }
  }
  return fs;
}

io::SnapshotInfo make_info() {
  io::SnapshotInfo info;
  info.extents = {5, 4, 6};
  info.steps_done = 42;
  info.x_boundary = grid::XBoundary::Periodic;
  info.meta = "mwd(dw=4) \"quoted\" \\slash";  // JSON escaping must round-trip
  return info;
}

TEST(Snapshot, RoundTripsBitExactWithInfo) {
  const auto a = make_snapshot_fields();
  const std::string blob = io::snapshot_to_string(a, make_info());
  grid::FieldSet b(grid::Layout({5, 4, 6}));
  const io::SnapshotInfo got = io::snapshot_from_string(blob, b);
  EXPECT_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);
  EXPECT_EQ(got.steps_done, 42);
  EXPECT_EQ(got.x_boundary, grid::XBoundary::Periodic);
  EXPECT_EQ(got.meta, "mwd(dw=4) \"quoted\" \\slash");
  EXPECT_EQ(got.extents.nx, 5);
  EXPECT_EQ(got.extents.ny, 4);
  EXPECT_EQ(got.extents.nz, 6);
  // Halo cells of the restored set stay zero.
  EXPECT_EQ(b.field(kernels::Comp::Exy).at(-1, 0, 0), std::complex<double>(0, 0));
}

TEST(Snapshot, HeaderOnlyReadIsCheap) {
  std::stringstream buffer(io::snapshot_to_string(make_snapshot_fields(), make_info()));
  const io::SnapshotInfo info = io::read_snapshot_info(buffer);
  EXPECT_EQ(info.steps_done, 42);
  EXPECT_EQ(info.extents.nz, 6);
}

TEST(Snapshot, RejectsCorruptionTruncationAndBadVersion) {
  const auto a = make_snapshot_fields();
  const std::string blob = io::snapshot_to_string(a, make_info());
  grid::FieldSet b(grid::Layout({5, 4, 6}));

  {  // bad magic
    std::string m = blob;
    m[0] ^= 0x40;
    EXPECT_THROW(io::snapshot_from_string(m, b), std::runtime_error);
  }
  {  // unsupported version (u32 LE at offset 8)
    std::string m = blob;
    m[8] = 99;
    EXPECT_THROW(io::snapshot_from_string(m, b), std::runtime_error);
  }
  {  // header JSON corruption breaks the header CRC
    std::string m = blob;
    m[20] ^= 0x01;
    EXPECT_THROW(io::snapshot_from_string(m, b), std::runtime_error);
  }
  {  // payload corruption breaks a chunk CRC
    std::string m = blob;
    m[m.size() / 2] ^= 0x01;
    EXPECT_THROW(io::snapshot_from_string(m, b), std::runtime_error);
  }
  {  // torn file: any truncation point must throw, never crash
    for (std::size_t cut : {blob.size() - 1, blob.size() - 9, blob.size() / 2,
                            std::size_t{40}, std::size_t{7}}) {
      EXPECT_THROW(io::snapshot_from_string(blob.substr(0, cut), b),
                   std::runtime_error);
    }
  }
  {  // corrupted footer
    std::string m = blob;
    m[m.size() - 1] ^= 0x01;
    EXPECT_THROW(io::snapshot_from_string(m, b), std::runtime_error);
  }
  // The pristine blob still reads after all that.
  EXPECT_EQ(io::snapshot_from_string(blob, b).steps_done, 42);
  EXPECT_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);
}

TEST(Snapshot, RejectsMismatchedExtents) {
  const std::string blob = io::snapshot_to_string(make_snapshot_fields(), make_info());
  grid::FieldSet wrong(grid::Layout({5, 4, 7}));
  EXPECT_THROW(io::snapshot_from_string(blob, wrong), std::runtime_error);
}

TEST(Snapshot, FileFormsAreAtomicAndErrnoChecked) {
  const auto a = make_snapshot_fields();
  const std::string path = testing::TempDir() + "/emwd_snap.ckpt";
  io::write_snapshot_file(path, a, make_info());
  // No temp file left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp~").good());
  grid::FieldSet b(grid::Layout({5, 4, 6}));
  EXPECT_EQ(io::read_snapshot_file(path, b).steps_done, 42);
  EXPECT_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);
  EXPECT_EQ(io::read_snapshot_info_file(path).steps_done, 42);

  EXPECT_THROW(io::write_snapshot_file("/nonexistent-dir/x.ckpt", a, make_info()),
               std::runtime_error);
  EXPECT_THROW(io::read_snapshot_file("/no/such/snap.ckpt", b), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SnapshotWriter, CapturesStateAtCaptureTime) {
  grid::Layout L({5, 4, 6});
  auto fs = make_snapshot_fields(1.0);
  const auto pristine = fs;  // copy: what the file must contain
  const std::string path = testing::TempDir() + "/emwd_async.ckpt";
  {
    io::SnapshotWriter writer(L);
    writer.capture(fs, make_info(), path);
    // Mutate after capture: the staged copy, not this, must hit the disk.
    fs.field(kernels::Comp::Exy).set(0, 0, 0, {1e9, -1e9});
    writer.wait_idle();
    const auto st = writer.stats();
    EXPECT_EQ(st.captured, 1);
    EXPECT_EQ(st.written, 1);
    EXPECT_GT(st.bytes_written, 0);
    EXPECT_EQ(st.staging_buffers, 1);  // a writer that keeps up never needs a second
  }
  grid::FieldSet back(L);
  io::read_snapshot_file(path, back);
  EXPECT_EQ(grid::FieldSet::max_field_diff(pristine, back), 0.0);
  std::remove(path.c_str());
}

TEST(SnapshotWriter, RepeatedCapturesLatestWins) {
  grid::Layout L({5, 4, 6});
  const std::string path = testing::TempDir() + "/emwd_latest.ckpt";
  io::SnapshotWriter writer(L);
  for (int i = 0; i < 4; ++i) {
    auto fs = make_snapshot_fields(i);
    io::SnapshotInfo info = make_info();
    info.steps_done = i;
    writer.capture(fs, info, path);
  }
  writer.wait_idle();
  EXPECT_EQ(writer.stats().captured, 4);
  EXPECT_EQ(writer.stats().written, 4);
  EXPECT_LE(writer.stats().staging_buffers, 2);  // never a third: later captures wait
  grid::FieldSet back(L);
  EXPECT_EQ(io::read_snapshot_file(path, back).steps_done, 3);
  EXPECT_EQ(grid::FieldSet::max_field_diff(make_snapshot_fields(3), back), 0.0);
  std::remove(path.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

TEST(SnapshotWriter, SecondBufferOnlyWhileTheFirstIsInFlight) {
  // A FIFO as the first write's temp file holds that write in open() until
  // the test reads it, so the first buffer stays in flight for certain.
  grid::Layout L({5, 4, 6});
  const std::string dir = testing::TempDir() + "/emwd_ondemand";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stuck = dir + "/stuck.ckpt";
  ASSERT_EQ(mkfifo((stuck + ".tmp~").c_str(), 0600), 0);
  const auto fs = make_snapshot_fields(4.0);
  const std::string want = io::snapshot_to_string(fs, make_info());
  io::SnapshotWriter writer(L);
  writer.capture(fs, make_info(), stuck);
  std::string drained;
  std::thread drain([&] {
    // Read the FIFO once the second capture is in, or after 10 s, so a
    // second capture that waits for the first buffer fails the test
    // instead of hanging it.  The pause lets the third capture wait.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (writer.stats().captured < 2 && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    drained = file_bytes(stuck + ".tmp~");
  });
  writer.capture(fs, make_info(), dir + "/second.ckpt");
  EXPECT_EQ(writer.stats().staging_buffers, 2);
  // Both buffers are in flight (unless the drain won the race), so this
  // one waits until the drained write frees the first.
  writer.capture(fs, make_info(), dir + "/third.ckpt");
  drain.join();
  writer.wait_idle();
  const auto st = writer.stats();
  EXPECT_EQ(st.staging_buffers, 2);  // never more than two
  EXPECT_EQ(st.written, 3);
  EXPECT_EQ(drained, want);
  EXPECT_EQ(file_bytes(dir + "/second.ckpt"), want);
  EXPECT_EQ(file_bytes(dir + "/third.ckpt"), want);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotWriter, PinnedAndUnpinnedCapturesWriteIdenticalFiles) {
  // The staging team has one thread per cpu of the caller's mask: a caller
  // pinned to one cpu copies alone, an unpinned one splits the component
  // arrays.  Either way the file must be the same bytes.
  grid::Layout L({5, 4, 6});
  const auto fs = make_snapshot_fields(2.0);
  const std::string pinned = testing::TempDir() + "/emwd_pinned.ckpt";
  const std::string unpinned = testing::TempDir() + "/emwd_unpinned.ckpt";
  io::SnapshotWriter writer(L);
  {
    util::ScopedAffinity pin({util::get_thread_affinity().cpus.front()});
    ASSERT_TRUE(pin.pinned());
    writer.capture(fs, make_info(), pinned);
  }
  writer.capture(fs, make_info(), unpinned);
  writer.wait_idle();
  const std::string want = io::snapshot_to_string(fs, make_info());
  EXPECT_EQ(file_bytes(pinned), want);
  EXPECT_EQ(file_bytes(unpinned), want);
  std::remove(pinned.c_str());
  std::remove(unpinned.c_str());
}

TEST(SnapshotWriter, WriteErrorsAreStickyAndRethrown) {
  grid::Layout L({5, 4, 6});
  io::SnapshotWriter writer(L);
  auto fs = make_snapshot_fields();
  writer.capture(fs, make_info(), "/nonexistent-dir/snap.ckpt");
  EXPECT_THROW(writer.wait_idle(), std::runtime_error);
  // The error was consumed by the rethrow; the writer is usable again.
  const std::string path = testing::TempDir() + "/emwd_recover.ckpt";
  writer.capture(fs, make_info(), path);
  writer.wait_idle();
  grid::FieldSet back(L);
  io::read_snapshot_file(path, back);
  EXPECT_EQ(grid::FieldSet::max_field_diff(fs, back), 0.0);
  std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Resume semantics through the Simulation facade: a snapshot taken at a
// step boundary and restored into a freshly built simulation continues
// bit-exactly, for every engine family (this is the property that makes
// preemption safe — see src/batch/README.md).

thiim::SimulationConfig resume_cfg(const std::string& spec) {
  thiim::SimulationConfig cfg;
  cfg.grid = {10, 10, 18};
  cfg.wavelength_cells = 9.0;
  cfg.pml.thickness = 4;
  cfg.engine_spec = spec;
  cfg.threads = 2;
  return cfg;
}

void setup_resume_sim(thiim::Simulation& sim) {
  const auto ag = sim.materials().add(em::silver());
  em::GeometryBuilder(sim.materials()).layer(ag, 0, 3);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, 13, {1.0, 0.0});
}

TEST(SnapshotResume, SegmentedRunMatchesUninterruptedAcrossEngines) {
  for (const std::string spec :
       {"naive", "spatial(by=4)", "mwd(dw=4,bz=2,tc=1)",
        "sharded(shards=2,interval=2,inner=naive)"}) {
    SCOPED_TRACE(spec);
    thiim::Simulation uninterrupted(resume_cfg(spec));
    setup_resume_sim(uninterrupted);
    uninterrupted.run(20);

    thiim::Simulation first(resume_cfg(spec));
    setup_resume_sim(first);
    first.run(11);  // deliberately not a divisor of 20
    std::stringstream blob;
    first.save_snapshot(blob);

    thiim::Simulation second(resume_cfg(spec));
    setup_resume_sim(second);
    const io::SnapshotInfo info = second.restore_snapshot(blob);
    EXPECT_EQ(info.steps_done, 11);
    EXPECT_EQ(second.steps_done(), 11);
    second.run(20 - second.steps_done());
    EXPECT_EQ(second.steps_done(), 20);
    EXPECT_EQ(grid::FieldSet::max_field_diff(uninterrupted.fields(), second.fields()),
              0.0)
        << "resume not bit-exact for engine " << spec;
    EXPECT_DOUBLE_EQ(uninterrupted.total_energy(), second.total_energy());
  }
}

TEST(SnapshotResume, StepHookSnapshotsResumeBitExactly) {
  thiim::Simulation uninterrupted(resume_cfg("naive"));
  setup_resume_sim(uninterrupted);
  uninterrupted.run(12);

  thiim::Simulation hooked(resume_cfg("naive"));
  setup_resume_sim(hooked);
  std::map<int, std::string> blobs;
  hooked.set_step_hook(4, [&](int done) {
    blobs[done] = io::snapshot_to_string(hooked.fields(), hooked.snapshot_info());
    return true;
  });
  hooked.run(12);
  // Hooks fire at interior step boundaries only: 4 and 8, not 12.
  ASSERT_EQ(blobs.size(), 2u);
  ASSERT_TRUE(blobs.count(4) && blobs.count(8));

  thiim::Simulation resumed(resume_cfg("naive"));
  setup_resume_sim(resumed);
  std::istringstream blob(blobs.at(8));
  resumed.restore_snapshot(blob);
  EXPECT_EQ(resumed.steps_done(), 8);
  resumed.run(4);
  EXPECT_EQ(grid::FieldSet::max_field_diff(uninterrupted.fields(), resumed.fields()),
            0.0);
}

TEST(SnapshotResume, RejectsBoundaryMismatchAndUnfinalized) {
  thiim::Simulation src(resume_cfg("naive"));
  setup_resume_sim(src);
  src.run(3);
  std::stringstream blob;
  src.save_snapshot(blob);

  // x-boundary mismatch: the coefficients differ, resuming would be wrong.
  auto cfg = resume_cfg("naive");
  cfg.x_boundary = grid::XBoundary::Periodic;
  thiim::Simulation periodic(cfg);
  periodic.finalize();
  EXPECT_THROW(periodic.restore_snapshot(blob), std::runtime_error);

  // Restore before finalize() is a lifecycle error.
  thiim::Simulation raw(resume_cfg("naive"));
  std::stringstream blob2;
  src.save_snapshot(blob2);
  EXPECT_THROW(raw.restore_snapshot(blob2), std::logic_error);
}

// ------------------------------------------------------------------
// Retention and recovery: rotation chains, CRC vetting, quarantine of
// corrupt candidates and startup cleanup of writer debris.

/// Write a valid snapshot with steps_done = `step` at `path`.
void put_snapshot(const std::string& path, int step) {
  io::SnapshotInfo info = make_info();
  info.steps_done = step;
  io::write_snapshot_file(path, make_snapshot_fields(step), info);
}

std::string slot_path(const std::string& path, int slot) {
  return slot == 0 ? path : path + '.' + std::to_string(slot);
}

TEST(SnapshotRetention, RotationKeepsNewestFirstChain) {
  const std::string path = testing::TempDir() + "/emwd_rot.ckpt";
  for (int step : {1, 2, 3}) {
    io::rotate_snapshots(path, 3);
    put_snapshot(path, step);
  }
  // Chain is newest-first: path=3, path.1=2, path.2=1.
  grid::FieldSet b(grid::Layout({5, 4, 6}));
  EXPECT_EQ(io::read_snapshot_file(slot_path(path, 0), b).steps_done, 3);
  EXPECT_EQ(io::read_snapshot_file(slot_path(path, 1), b).steps_done, 2);
  EXPECT_EQ(io::read_snapshot_file(slot_path(path, 2), b).steps_done, 1);
  // One more rotation at keep=3 drops the oldest off the end.
  io::rotate_snapshots(path, 3);
  put_snapshot(path, 4);
  EXPECT_EQ(io::read_snapshot_file(slot_path(path, 2), b).steps_done, 2);
  EXPECT_FALSE(std::ifstream(path + ".3").good());
  for (int s = 0; s < 3; ++s) std::remove(slot_path(path, s).c_str());
}

TEST(SnapshotRetention, ValidateDetectsCorruptionWithoutAFieldSet) {
  const std::string path = testing::TempDir() + "/emwd_val.ckpt";
  put_snapshot(path, 7);
  EXPECT_TRUE(io::validate_snapshot_file(path));
  // Flip one payload byte: the chunk CRC walk must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char c = 0;
    f.seekg(200);
    f.get(c);
    f.seekp(200);
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_FALSE(io::validate_snapshot_file(path));
  EXPECT_FALSE(io::validate_snapshot_file("/no/such/file.ckpt"));
  std::remove(path.c_str());
}

TEST(SnapshotRetention, FindLatestValidSkipsAndQuarantinesCorrupt) {
  const std::string path = testing::TempDir() + "/emwd_find.ckpt";
  for (int step : {1, 2, 3}) {
    io::rotate_snapshots(path, 3);
    put_snapshot(path, step);
  }
  // Corrupt the newest; recovery must fall back to path.1 (step 2) and
  // quarantine the corpse as path.bad.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    f.put('\x7f');
  }
  std::vector<std::string> quarantined;
  const std::string best = io::find_latest_valid_snapshot(path, 3, &quarantined);
  EXPECT_EQ(best, slot_path(path, 1));
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0], path + ".bad");
  EXPECT_TRUE(std::ifstream(path + ".bad").good());
  EXPECT_FALSE(std::ifstream(path).good());  // corpse moved, not copied
  grid::FieldSet b(grid::Layout({5, 4, 6}));
  EXPECT_EQ(io::read_snapshot_file(best, b).steps_done, 2);

  // All candidates gone -> empty string (caller starts from scratch).
  for (int s = 0; s < 3; ++s) std::remove(slot_path(path, s).c_str());
  std::remove((path + ".bad").c_str());
  EXPECT_EQ(io::find_latest_valid_snapshot(path, 3, nullptr), "");
}

TEST(SnapshotRetention, CleanupRemovesDebrisAndPrunesBeyondKeep) {
  const std::string dir = testing::TempDir() + "/emwd_cleanup";
  std::filesystem::create_directories(dir);
  put_snapshot(dir + "/job0.ckpt", 1);
  put_snapshot(dir + "/job0.ckpt.1", 2);
  put_snapshot(dir + "/job0.ckpt.2", 3);
  std::ofstream(dir + "/job1.ckpt.tmp~") << "torn write";
  const io::CleanupStats swept = io::cleanup_checkpoint_dir(dir, 2);
  EXPECT_EQ(swept.tmp_removed, 1);
  EXPECT_EQ(swept.pruned, 1);  // job0.ckpt.2 is beyond keep=2
  EXPECT_TRUE(std::ifstream(dir + "/job0.ckpt").good());
  EXPECT_TRUE(std::ifstream(dir + "/job0.ckpt.1").good());
  EXPECT_FALSE(std::ifstream(dir + "/job0.ckpt.2").good());
  EXPECT_FALSE(std::ifstream(dir + "/job1.ckpt.tmp~").good());
  // Missing directory is a quiet no-op, not an error.
  const io::CleanupStats none = io::cleanup_checkpoint_dir(dir + "/absent", 2);
  EXPECT_EQ(none.tmp_removed + none.pruned, 0);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotWriter, RotatesChainWhenKeepExceedsOne) {
  grid::Layout L({5, 4, 6});
  const std::string path = testing::TempDir() + "/emwd_wkeep.ckpt";
  io::SnapshotWriter writer(L);
  for (int i = 1; i <= 3; ++i) {
    auto fs = make_snapshot_fields(i);
    io::SnapshotInfo info = make_info();
    info.steps_done = i;
    writer.capture(fs, info, path, /*keep=*/2);
    writer.wait_idle();  // serialize: rotation order must be deterministic
  }
  grid::FieldSet back(L);
  EXPECT_EQ(io::read_snapshot_file(path, back).steps_done, 3);
  EXPECT_EQ(io::read_snapshot_file(path + ".1", back).steps_done, 2);
  EXPECT_FALSE(std::ifstream(path + ".2").good());  // keep=2 bounds the chain
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

// ------------------------------------------------------------------
// A sharded run leaves its set split: the readers take rows from the shard
// sets in global z order, so each output equals the joined copy's.

TEST(SplitSetReaders, MatchTheJoinedCopyByteForByte) {
  thiim::SimulationConfig cfg;
  cfg.grid = {6, 5, 16};
  cfg.wavelength_cells = 12.0;
  cfg.pml.thickness = 3;
  cfg.x_boundary = grid::XBoundary::Periodic;
  cfg.engine_spec = "sharded(shards=3,interval=2,inner=naive)";
  cfg.threads = 3;
  thiim::Simulation sim(cfg);
  const auto asi = sim.materials().add(em::amorphous_silicon());
  em::GeometryBuilder(sim.materials()).layer(asi, 4, 9);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, 12, {1.0, 0.0});
  sim.run(7);

  const grid::FieldSet& split = sim.fields();
  ASSERT_NE(split.parts(), nullptr);
  const grid::FieldSet joined(split);  // a copy of a split set is joined
  ASSERT_EQ(joined.parts(), nullptr);

  const io::SnapshotInfo info = sim.snapshot_info();
  const std::string want = io::snapshot_to_string(joined, info);
  EXPECT_EQ(io::snapshot_to_string(split, info), want);
  const std::string from_split = testing::TempDir() + "/emwd_split.ckpt";
  const std::string from_joined = testing::TempDir() + "/emwd_joined.ckpt";
  {
    io::SnapshotWriter writer(split.layout());
    writer.capture(split, info, from_split);
    writer.capture(joined, info, from_joined);
    writer.wait_idle();
  }
  EXPECT_EQ(file_bytes(from_split), want);
  EXPECT_EQ(file_bytes(from_joined), want);
  std::remove(from_split.c_str());
  std::remove(from_joined.c_str());

  EXPECT_GT(em::electric_energy(split), 0.0);
  EXPECT_EQ(em::electric_energy(split), em::electric_energy(joined));
  EXPECT_EQ(em::magnetic_energy(split), em::magnetic_energy(joined));
  EXPECT_EQ(em::absorption_by_material(split, sim.materials(), sim.params().omega),
            em::absorption_by_material(joined, sim.materials(), sim.params().omega));
  EXPECT_EQ(em::fields_norm(split), em::fields_norm(joined));
  EXPECT_EQ(em::relative_change(split, joined), 0.0);
  {
    grid::FieldSet earlier(joined);
    earlier.field(kernels::Comp::Ezy).set(2, 3, 11, {0.5, 0.5});
    EXPECT_EQ(em::relative_change(split, earlier), em::relative_change(joined, earlier));
  }
  for (int axis = 0; axis < 3; ++axis) {
    for (const int k : {0, 5, 6, 10, 15}) {
      EXPECT_EQ(em::parent_E(split, axis, 2, 3, k), em::parent_E(joined, axis, 2, 3, k));
      EXPECT_EQ(em::parent_H(split, axis, 4, 1, k), em::parent_H(joined, axis, 4, 1, k));
    }
  }
  EXPECT_NE(split.parts(), nullptr);  // no reader joined it
}

}  // namespace
