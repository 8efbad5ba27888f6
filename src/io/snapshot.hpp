// Versioned, self-describing field snapshots + a streaming writer that
// overlaps serialization with compute.
//
// This is the on-disk contract behind checkpoint/restart as a scheduler
// primitive: batch::Scheduler preempts a running job at a step boundary,
// persists its FieldSet through this format, and resumes it later (same or
// different NUMA slot) bit-exactly.  The byte-for-byte layout is specified
// in src/io/README.md; the format carries its own CRCs so a torn or
// corrupted file is detected on read, never silently resumed from.
//
// Two API layers:
//   - synchronous write_snapshot / read_snapshot (+ _file, _string forms):
//     the file forms write atomically (temp + rename) so a crash mid-write
//     never leaves a torn file at the destination path.
//   - SnapshotWriter: async writer.  capture() blocks only for a parallel
//     copy of the field rows into a staging buffer (plus, when both buffers
//     are in flight, a wait for the previous write); a background thread
//     chunks, CRCs and atomically writes the file while the engine keeps
//     stepping.
#pragma once

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "grid/fieldset.hpp"

namespace emwd::io {

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum used per chunk
/// and for the header JSON.  Seed with 0; chain by passing the previous
/// result as `seed`.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Snapshot metadata carried in the header JSON.
struct SnapshotInfo {
  grid::Extents extents{};
  int steps_done = 0;
  grid::XBoundary x_boundary = grid::XBoundary::Dirichlet;
  /// Free-form provenance (engine spec, job name, ...); advisory only —
  /// restore never interprets it.
  std::string meta;
};

/// Serialize the 12 field arrays (interior cells) of `fs` plus `info` in
/// snapshot format v2.  Throws std::runtime_error on stream failure.
void write_snapshot(std::ostream& os, const grid::FieldSet& fs, const SnapshotInfo& info);

/// Parse and validate a v2 snapshot into `fs` (whose layout interior must
/// match the stored extents) and return its metadata.  Throws
/// std::runtime_error on bad magic, unsupported version, extents mismatch,
/// CRC mismatch, truncation, or malformed header JSON.
SnapshotInfo read_snapshot(std::istream& is, grid::FieldSet& fs);

/// Parse only the header (magic through header CRC) — cheap inspection of
/// extents/steps_done without touching field payloads.
SnapshotInfo read_snapshot_info(std::istream& is);

/// Atomic file forms: write to `path + ".tmp~"` then rename over `path`.
/// Every write and the rename are errno-checked; failures throw
/// std::runtime_error carrying strerror text and leave `path` untouched.
void write_snapshot_file(const std::string& path, const grid::FieldSet& fs,
                         const SnapshotInfo& info);
SnapshotInfo read_snapshot_file(const std::string& path, grid::FieldSet& fs);
SnapshotInfo read_snapshot_info_file(const std::string& path);

/// In-memory forms — the scheduler's preemption path keeps the blob of a
/// preempted job in RAM while it waits in the queue.
std::string snapshot_to_string(const grid::FieldSet& fs, const SnapshotInfo& info);
SnapshotInfo snapshot_from_string(const std::string& blob, grid::FieldSet& fs);

/// Run `writer(os)` against `path + ".tmp~"` and atomically rename onto
/// `path` on success; on any failure the temp file is removed and `path` is
/// left untouched.  Shared by write_snapshot_file and the SnapshotWriter's
/// background writes.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

// -------------------------------------------- retention / recovery helpers
//
// Keep-last-K checkpoints are a rotation chain: `path` is always the newest
// snapshot, `path.1` the one before it, up to `path.<keep-1>`.  Writers
// rotate before each new write; readers walk the chain newest-first and
// quarantine what fails validation.  (See src/io/README.md, "Failure
// semantics".)

/// Shift the rotation chain down one slot: path.<keep-2> -> path.<keep-1>,
/// ..., path -> path.1 (dropping what falls off the end).  keep <= 1 is a
/// no-op — the atomic overwrite of `path` already keeps exactly one.
/// Missing links are skipped; rename errors are ignored (retention is
/// best-effort, the upcoming write of `path` is what must not fail).
void rotate_snapshots(const std::string& path, int keep);

/// Walk `path`'s full chunk chain and verify every CRC without needing a
/// FieldSet; false on any corruption, truncation or open failure.
bool validate_snapshot_file(const std::string& path);

/// Rename `path` to `path + ".bad"` (replacing any previous quarantine of
/// that slot) so a corrupted snapshot is kept for forensics but never
/// resumed from again.  Returns the quarantine path; best-effort.
std::string quarantine_snapshot(const std::string& path);

/// Newest fully-valid snapshot of the rotation chain (path, path.1, ...,
/// path.<keep-1>): each candidate is CRC-validated; corrupted candidates
/// are quarantined to *.bad (appended to `quarantined` when given).
/// Returns the winning path, or "" when nothing valid is left — the
/// caller then starts from scratch.
std::string find_latest_valid_snapshot(const std::string& path, int keep,
                                       std::vector<std::string>* quarantined = nullptr);

struct CleanupStats {
  int tmp_removed = 0;    // stale *.tmp~ from a crashed atomic write
  int pruned = 0;         // rotation slots at index >= keep
};

/// Startup hygiene for a checkpoint directory: remove stale `*.tmp~` files
/// (a crash between open and rename leaves them) and prune rotation slots
/// `*.N` with N >= keep (a lowered keep would otherwise strand old data
/// forever).  Missing directory is a no-op.
CleanupStats cleanup_checkpoint_dir(const std::string& dir, int keep);

/// Streaming snapshot writer: one staging buffer, a second on demand.
///
/// capture() copies the field rows into a free staging buffer and returns;
/// the background thread serializes, CRCs and atomically writes the file.
/// The constructor allocates one buffer.  A capture() that finds it still
/// queued or being written allocates a second instead of waiting, so a
/// writer that keeps up holds one snapshot's worth of memory, and the
/// engine only stalls when it produces snapshots faster than the disk
/// drains two of them.  The copy is split by component array over a
/// fork-join team with one thread per cpu of the calling thread's affinity
/// mask (at most one per array), so a pinned caller stays on its cpus.
/// Write errors are sticky: the first failure is rethrown from the next
/// capture()/wait_idle() call.  The destructor drains pending writes
/// (swallowing a sticky error — call wait_idle() first if you care).
///
/// Thread contract: capture() must be called from one thread at a time (the
/// engine's step-hook thread); stats()/wait_idle() are safe from any thread.
class SnapshotWriter {
 public:
  struct Stats {
    std::int64_t captured = 0;      // snapshots accepted by capture()
    std::int64_t written = 0;       // snapshot files completed on disk
    std::int64_t bytes_written = 0; // total serialized bytes (incl. framing)
    double capture_seconds = 0.0;   // engine-side stall inside capture()
    double blocked_seconds = 0.0;   // part of capture spent waiting for a buffer
    double write_seconds = 0.0;     // background serialize+write time
    int staging_buffers = 1;        // buffers allocated so far (1 or 2)
  };

  /// `layout` fixes the staging-buffer geometry; every capture()'d FieldSet
  /// must share it.
  explicit SnapshotWriter(const grid::Layout& layout);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Stage a snapshot of `fs` for asynchronous write to `path`.  Blocks for
  /// the row copy, plus a buffer wait if both buffers are still in flight.
  /// Rethrows the first background write error, if any.  `keep` > 1 rotates
  /// the existing chain (rotate_snapshots) before the new file lands, so the
  /// last `keep` checkpoints survive on disk.
  void capture(const grid::FieldSet& fs, const SnapshotInfo& info, std::string path,
               int keep = 1);

  /// Block until every captured snapshot is on disk; rethrows the first
  /// background write error (once — the error slot is cleared).
  void wait_idle();

  Stats stats() const;

 private:
  struct Buffer {
    std::unique_ptr<double[]> rows;  // field-major interior rows (staging layout)
    SnapshotInfo info;
    std::string path;
    int keep = 1;              // rotation depth for this write
    std::int64_t correlation = -1;  // capture thread's trace correlation id
  };

  static constexpr int kMaxBuffers = 2;

  void writer_loop();

  grid::Extents extents_{};
  std::array<Buffer, kMaxBuffers> buffers_;  // [1] is allocated on demand
  mutable std::mutex mu_;
  std::condition_variable cv_free_;   // a buffer became free
  std::condition_variable cv_done_;   // queue drained / writer finished one
  std::deque<std::size_t> ready_;     // staged, awaiting write (FIFO)
  std::vector<std::size_t> free_;     // available for capture
  bool writing_ = false;              // writer thread holds a buffer
  bool stop_ = false;
  std::exception_ptr error_;          // first background failure
  Stats stats_{};
  std::thread thread_;
};

}  // namespace emwd::io
