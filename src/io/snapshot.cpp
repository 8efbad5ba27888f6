#include "io/snapshot.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "fault/inject.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/affinity.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace emwd::io {
namespace {

// The payload is raw IEEE-754 doubles in native byte order; the format spec
// (src/io/README.md) pins them little-endian, so refuse to build elsewhere.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");

constexpr char kMagic[8] = {'E', 'M', 'W', 'D', 'S', 'N', 'A', 'P'};
constexpr char kFooterMagic[8] = {'E', 'M', 'W', 'D', 'S', 'E', 'N', 'D'};
constexpr std::uint32_t kVersion = 2;
// Header JSON is tens of bytes; anything bigger than this is a corrupt or
// hostile length field, not a real snapshot.
constexpr std::uint32_t kMaxHeaderJson = 1u << 16;
// Target chunk payload size; at least one z-plane per chunk regardless.
constexpr std::size_t kTargetChunkBytes = std::size_t{1} << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("snapshot: " + what);
}

void put_u32(std::ostream& os, std::uint32_t v) {
  const unsigned char b[4] = {
      static_cast<unsigned char>(v & 0xff), static_cast<unsigned char>((v >> 8) & 0xff),
      static_cast<unsigned char>((v >> 16) & 0xff),
      static_cast<unsigned char>((v >> 24) & 0xff)};
  os.write(reinterpret_cast<const char*>(b), 4);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  put_u32(os, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(os, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(std::istream& is, const char* what) {
  unsigned char b[4];
  is.read(reinterpret_cast<char*>(b), 4);
  if (is.gcount() != 4) fail(std::string("truncated reading ") + what);
  return static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t get_u64(std::istream& is, const char* what) {
  const std::uint64_t lo = get_u32(is, what);
  const std::uint64_t hi = get_u32(is, what);
  return lo | (hi << 32);
}

const char* xb_name(grid::XBoundary xb) {
  return xb == grid::XBoundary::Periodic ? "periodic" : "dirichlet";
}

grid::XBoundary xb_from_name(const std::string& name) {
  if (name == "periodic") return grid::XBoundary::Periodic;
  if (name == "dirichlet") return grid::XBoundary::Dirichlet;
  fail("unknown x_boundary \"" + name + '"');
}

std::string header_json(const SnapshotInfo& info) {
  std::string s = "{\"nx\":" + std::to_string(info.extents.nx) +
                  ",\"ny\":" + std::to_string(info.extents.ny) +
                  ",\"nz\":" + std::to_string(info.extents.nz) +
                  ",\"fields\":" + std::to_string(kernels::kNumComps) +
                  ",\"steps_done\":" + std::to_string(info.steps_done) +
                  ",\"x_boundary\":" + util::json_quote(xb_name(info.x_boundary)) +
                  ",\"meta\":" + util::json_quote(info.meta) + '}';
  return s;
}

SnapshotInfo parse_header_json(const std::string& text) {
  util::JsonValue doc;
  try {
    doc = util::JsonValue::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("malformed header JSON: ") + e.what());
  }
  SnapshotInfo info;
  info.extents.nx = static_cast<int>(doc.get_int("nx", -1));
  info.extents.ny = static_cast<int>(doc.get_int("ny", -1));
  info.extents.nz = static_cast<int>(doc.get_int("nz", -1));
  if (info.extents.nx <= 0 || info.extents.ny <= 0 || info.extents.nz <= 0) {
    fail("header missing/invalid extents");
  }
  if (doc.get_int("fields", -1) != kernels::kNumComps) fail("field count mismatch");
  info.steps_done = static_cast<int>(doc.get_int("steps_done", 0));
  if (info.steps_done < 0) fail("negative steps_done");
  info.x_boundary = xb_from_name(doc.get_string("x_boundary", "dirichlet"));
  info.meta = doc.get_string("meta", "");
  return info;
}

struct Geometry {
  int nx = 0, ny = 0, nz = 0;
  std::size_t row_doubles() const { return static_cast<std::size_t>(2) * nx; }
  std::size_t row_bytes() const { return row_doubles() * sizeof(double); }
  std::size_t plane_bytes() const { return static_cast<std::size_t>(ny) * row_bytes(); }
  std::size_t field_doubles() const {
    return row_doubles() * static_cast<std::size_t>(ny) * static_cast<std::size_t>(nz);
  }
  int planes_per_chunk() const {
    const std::size_t per = kTargetChunkBytes / plane_bytes();
    return per < 1 ? 1 : static_cast<int>(per > static_cast<std::size_t>(nz)
                                              ? static_cast<std::size_t>(nz)
                                              : per);
  }
};

// Serialize header + chunks + footer, pulling interior rows through `row`
// (field index in kComps order, j, k) — shared by the FieldSet path and the
// SnapshotWriter's staging-buffer path so there is exactly one writer.
void serialize_snapshot(std::ostream& os, const SnapshotInfo& info, const Geometry& g,
                        const std::function<const double*(int, int, int)>& row) {
  os.write(kMagic, sizeof kMagic);
  put_u32(os, kVersion);
  const std::string hdr = header_json(info);
  put_u32(os, static_cast<std::uint32_t>(hdr.size()));
  os.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  const std::uint32_t hdr_crc = crc32(hdr.data(), hdr.size());
  put_u32(os, hdr_crc);

  // Assemble each chunk's payload in a scratch buffer, then CRC and write
  // it in one pass each — one large write per ~1 MiB chunk instead of a
  // syscall-bound stream of per-row writes, and one contiguous CRC sweep
  // (the slicing-by-8 fast path needs long runs to pay off).
  const int per_chunk = g.planes_per_chunk();
  std::vector<char> payload(static_cast<std::size_t>(per_chunk) * g.plane_bytes());
  std::uint64_t chunks = 0;
  for (int f = 0; f < kernels::kNumComps; ++f) {
    for (int k0 = 0; k0 < g.nz; k0 += per_chunk) {
      const int planes = per_chunk < g.nz - k0 ? per_chunk : g.nz - k0;
      put_u32(os, static_cast<std::uint32_t>(f));
      put_u32(os, static_cast<std::uint32_t>(k0));
      put_u32(os, static_cast<std::uint32_t>(planes));
      put_u64(os, static_cast<std::uint64_t>(planes) * g.plane_bytes());
      char* dst = payload.data();
      for (int k = k0; k < k0 + planes; ++k) {
        for (int j = 0; j < g.ny; ++j) {
          std::memcpy(dst, row(f, j, k), g.row_bytes());
          dst += g.row_bytes();
        }
      }
      const std::size_t bytes = static_cast<std::size_t>(planes) * g.plane_bytes();
      os.write(payload.data(), static_cast<std::streamsize>(bytes));
      put_u32(os, crc32(payload.data(), bytes));
      ++chunks;
    }
  }
  os.write(kFooterMagic, sizeof kFooterMagic);
  put_u64(os, chunks);
  put_u32(os, hdr_crc);
  if (!os) fail("stream write failed");
}

// Read magic/version/header JSON/header CRC; returns info + the CRC.
SnapshotInfo read_header(std::istream& is, std::uint32_t* hdr_crc_out) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (is.gcount() != sizeof magic || std::memcmp(magic, kMagic, sizeof magic) != 0) {
    fail("bad magic");
  }
  const std::uint32_t version = get_u32(is, "version");
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kVersion) + ")");
  }
  const std::uint32_t hdr_len = get_u32(is, "header length");
  if (hdr_len == 0 || hdr_len > kMaxHeaderJson) fail("implausible header length");
  std::string hdr(hdr_len, '\0');
  is.read(hdr.data(), static_cast<std::streamsize>(hdr_len));
  if (is.gcount() != static_cast<std::streamsize>(hdr_len)) fail("truncated header");
  const std::uint32_t stored = get_u32(is, "header CRC");
  if (crc32(hdr.data(), hdr.size()) != stored) fail("header CRC mismatch");
  if (hdr_crc_out) *hdr_crc_out = stored;
  return parse_header_json(hdr);
}

// Walk the chunk chain and footer that follow the header, checking every
// frame, CRC and count.  Row (field index in kComps order, j, k) of the
// payload is read to `row(f, j, k)` — the FieldSet's row when restoring, a
// scratch row when validating — so there is exactly one reader.
void read_chunks(std::istream& is, const Geometry& g, std::uint32_t hdr_crc,
                 const std::function<double*(int, int, int)>& row) {
  std::uint64_t chunks = 0;
  for (int f = 0; f < kernels::kNumComps; ++f) {
    int k = 0;
    while (k < g.nz) {
      const std::uint32_t cf = get_u32(is, "chunk field");
      const std::uint32_t ck0 = get_u32(is, "chunk k0");
      const std::uint32_t cplanes = get_u32(is, "chunk planes");
      const std::uint64_t cbytes = get_u64(is, "chunk bytes");
      if (cf != static_cast<std::uint32_t>(f)) fail("chunk field out of order");
      if (ck0 != static_cast<std::uint32_t>(k)) fail("chunk k0 out of order");
      if (cplanes == 0 || cplanes > static_cast<std::uint32_t>(g.nz - k)) {
        fail("implausible chunk plane count");
      }
      if (cbytes != static_cast<std::uint64_t>(cplanes) * g.plane_bytes()) {
        fail("chunk byte count mismatch");
      }
      std::uint32_t crc = 0;
      for (int kk = k; kk < k + static_cast<int>(cplanes); ++kk) {
        for (int j = 0; j < g.ny; ++j) {
          double* dst = row(f, j, kk);
          is.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(g.row_bytes()));
          if (is.gcount() != static_cast<std::streamsize>(g.row_bytes())) {
            fail("truncated chunk payload");
          }
          crc = crc32(dst, g.row_bytes(), crc);
        }
      }
      if (get_u32(is, "chunk CRC") != crc) fail("chunk CRC mismatch");
      k += static_cast<int>(cplanes);
      ++chunks;
    }
  }

  char fmagic[8];
  is.read(fmagic, sizeof fmagic);
  if (is.gcount() != sizeof fmagic || std::memcmp(fmagic, kFooterMagic, sizeof fmagic) != 0) {
    fail("bad footer magic");
  }
  if (get_u64(is, "footer chunk count") != chunks) fail("footer chunk count mismatch");
  if (get_u32(is, "footer header CRC") != hdr_crc) fail("footer header CRC mismatch");
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  // Slicing-by-8: eight derived tables let the loop fold 8 bytes per
  // iteration (~5x the classic byte-at-a-time table walk).  The snapshot
  // writer CRCs the full field state every checkpoint, so this is the
  // background thread's hottest loop by far.
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (int s = 1; s < 8; ++s) {
        c = t[0][c & 0xffu] ^ (c >> 8);
        t[s][i] = c;
      }
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  while (n >= 8) {
    std::uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
        tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
        tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) c = tables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void write_snapshot(std::ostream& os, const grid::FieldSet& fs, const SnapshotInfo& info) {
  fault::maybe_fail("snapshot.write");
  const grid::Layout& L = fs.layout();
  const Geometry g{L.nx(), L.ny(), L.nz()};
  if (!(info.extents == L.interior())) fail("info extents do not match FieldSet");
  serialize_snapshot(os, info, g,
                     [&fs](int f, int j, int k) { return fs.row(kernels::kComps[f].self, j, k); });
}

SnapshotInfo read_snapshot(std::istream& is, grid::FieldSet& fs) {
  std::uint32_t hdr_crc = 0;
  const SnapshotInfo info = read_header(is, &hdr_crc);
  fault::maybe_fail("snapshot.read");
  const grid::Layout& L = fs.layout();
  if (!(info.extents == L.interior())) fail("extents mismatch");
  read_chunks(is, Geometry{L.nx(), L.ny(), L.nz()}, hdr_crc, [&fs, &L](int f, int j, int k) {
    return fs.field(kernels::kComps[f].self).data() + 2 * L.at(0, j, k);
  });
  return info;
}

SnapshotInfo read_snapshot_info(std::istream& is) { return read_header(is, nullptr); }

void write_file_atomic(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = path + ".tmp~";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      const int err = errno;
      fail("cannot open " + tmp + ": " + std::strerror(err));
    }
    try {
      writer(os);
    } catch (...) {
      os.close();
      std::remove(tmp.c_str());
      throw;
    }
    os.flush();
    if (!os) {
      const int err = errno;
      os.close();
      std::remove(tmp.c_str());
      fail("write to " + tmp + " failed: " + std::strerror(err));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    fail("rename " + tmp + " -> " + path + " failed: " + std::strerror(err));
  }
}

namespace {

std::string rotation_path(const std::string& path, int slot) {
  return slot == 0 ? path : path + '.' + std::to_string(slot);
}

}  // namespace

void rotate_snapshots(const std::string& path, int keep) {
  // Oldest-first so each rename lands in a vacated slot; what falls off the
  // end (slot keep-1) is simply overwritten by the rename onto it.
  for (int slot = keep - 2; slot >= 0; --slot) {
    const std::string from = rotation_path(path, slot);
    std::error_code ec;
    if (!std::filesystem::exists(from, ec)) continue;
    std::rename(from.c_str(), rotation_path(path, slot + 1).c_str());
  }
}

bool validate_snapshot_file(const std::string& path) {
  // Geometry comes from the header and each row lands in one scratch row:
  // validation needs no FieldSet, so the recovery path can vet a candidate
  // before allocating anything.
  try {
    std::ifstream is(path, std::ios::binary);
    if (!is) return false;
    std::uint32_t hdr_crc = 0;
    const SnapshotInfo info = read_header(is, &hdr_crc);
    const Geometry g{info.extents.nx, info.extents.ny, info.extents.nz};
    std::vector<double> scratch(g.row_doubles());
    read_chunks(is, g, hdr_crc, [&scratch](int, int, int) { return scratch.data(); });
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::string quarantine_snapshot(const std::string& path) {
  const std::string bad = path + ".bad";
  std::remove(bad.c_str());
  std::rename(path.c_str(), bad.c_str());
  return bad;
}

std::string find_latest_valid_snapshot(const std::string& path, int keep,
                                       std::vector<std::string>* quarantined) {
  if (keep < 1) keep = 1;
  for (int slot = 0; slot < keep; ++slot) {
    const std::string cand = rotation_path(path, slot);
    std::error_code ec;
    if (!std::filesystem::exists(cand, ec)) continue;
    if (validate_snapshot_file(cand)) return cand;
    const std::string bad = quarantine_snapshot(cand);
    if (quarantined) quarantined->push_back(bad);
  }
  return {};
}

CleanupStats cleanup_checkpoint_dir(const std::string& dir, int keep) {
  CleanupStats out;
  if (keep < 1) keep = 1;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code fec;
    if (!entry.is_regular_file(fec)) continue;
    const std::string name = entry.path().filename().string();
    const std::string full = entry.path().string();
    if (name.size() > 5 && name.compare(name.size() - 5, 5, ".tmp~") == 0) {
      if (std::remove(full.c_str()) == 0) ++out.tmp_removed;
      continue;
    }
    // Rotation slots carry a purely numeric suffix (".N"); prune N >= keep.
    const std::size_t dot = name.rfind('.');
    if (dot == std::string::npos || dot + 1 >= name.size()) continue;
    int slot = 0;
    bool numeric = true;
    for (std::size_t i = dot + 1; i < name.size() && numeric; ++i) {
      numeric = name[i] >= '0' && name[i] <= '9';
      if (numeric && slot < 1000000) slot = slot * 10 + (name[i] - '0');
    }
    if (!numeric || slot < keep) continue;
    if (std::remove(full.c_str()) == 0) ++out.pruned;
  }
  return out;
}

void write_snapshot_file(const std::string& path, const grid::FieldSet& fs,
                         const SnapshotInfo& info) {
  write_file_atomic(path, [&](std::ostream& os) { write_snapshot(os, fs, info); });
}

SnapshotInfo read_snapshot_file(const std::string& path, grid::FieldSet& fs) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    const int err = errno;
    fail("cannot open " + path + ": " + std::strerror(err));
  }
  return read_snapshot(is, fs);
}

SnapshotInfo read_snapshot_info_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    const int err = errno;
    fail("cannot open " + path + ": " + std::strerror(err));
  }
  return read_snapshot_info(is);
}

std::string snapshot_to_string(const grid::FieldSet& fs, const SnapshotInfo& info) {
  std::ostringstream os(std::ios::binary);
  write_snapshot(os, fs, info);
  return std::move(os).str();
}

SnapshotInfo snapshot_from_string(const std::string& blob, grid::FieldSet& fs) {
  std::istringstream is(blob, std::ios::binary);
  return read_snapshot(is, fs);
}

namespace {

// Copy the interior rows of `fs` into `rows` in the staging layout (field-major,
// as the file's chunks).  A split set's rows come from its parts.  One
// thread per cpu the caller may run on, one component array or more each;
// the team inherits the caller's mask, so a pinned executor's copy stays on
// its slot.  No span inside: the caller's snapshot.capture covers the copy,
// and every thread that records a span gets a trace ring of its own.
void stage_rows(const grid::FieldSet& fs, const Geometry& g, double* rows) {
  const int team = std::clamp(static_cast<int>(util::get_thread_affinity().cpus.size()), 1,
                              kernels::kNumComps);
  exec::ThreadTeam::run(team, [&](int tid) {
    const exec::Chunk fields = exec::split_range(kernels::kNumComps, team, tid);
    for (int f = fields.begin; f < fields.end; ++f) {
      const kernels::Comp c = kernels::kComps[f].self;
      double* dst = rows + static_cast<std::size_t>(f) * g.field_doubles();
      for (int k = 0; k < g.nz; ++k) {
        for (int j = 0; j < g.ny; ++j) {
          std::memcpy(dst, fs.row(c, j, k), g.row_bytes());
          dst += g.row_doubles();
        }
      }
    }
  });
}

}  // namespace

SnapshotWriter::SnapshotWriter(const grid::Layout& layout) : extents_(layout.interior()) {
  const Geometry g{extents_.nx, extents_.ny, extents_.nz};
  // Zero-filled, so its pages are faulted in before the first capture.
  buffers_[0].rows = std::make_unique<double[]>(g.field_doubles() * kernels::kNumComps);
  free_.push_back(0);
  thread_ = std::thread([this] { writer_loop(); });
}

SnapshotWriter::~SnapshotWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_free_.notify_all();
  cv_done_.notify_all();
  thread_.join();
}

void SnapshotWriter::capture(const grid::FieldSet& fs, const SnapshotInfo& info,
                             std::string path, int keep) {
  if (!(fs.layout().interior() == extents_)) {
    throw std::invalid_argument("SnapshotWriter: FieldSet layout mismatch");
  }
  OBS_SPAN("snapshot.capture", info.steps_done);
  util::Timer total;
  std::size_t idx = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    util::Timer blocked;
    cv_free_.wait(lock, [this] {
      return !free_.empty() || stats_.staging_buffers < kMaxBuffers || error_ || stop_;
    });
    stats_.blocked_seconds += blocked.seconds();
    if (error_) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
    if (stop_) throw std::runtime_error("SnapshotWriter: capture after shutdown");
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      // The first buffer is still queued or being written: take the second
      // rather than wait for it.
      idx = static_cast<std::size_t>(stats_.staging_buffers++);
    }
  }

  // Stage outside the lock — the buffer is neither free nor ready, so no
  // other thread touches it.
  Buffer& buf = buffers_[idx];
  const Geometry g{extents_.nx, extents_.ny, extents_.nz};
  try {
    // Not zero-filled: the copy overwrites every element and faults the
    // pages in across the team.
    if (!buf.rows) {
      buf.rows =
          std::make_unique_for_overwrite<double[]>(g.field_doubles() * kernels::kNumComps);
    }
    stage_rows(fs, g, buf.rows.get());
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!buf.rows) {
      --stats_.staging_buffers;  // the allocation failed; the next capture retries it
    } else {
      free_.push_back(idx);
    }
    throw;
  }
  buf.info = info;
  buf.path = std::move(path);
  buf.keep = keep < 1 ? 1 : keep;
  // The background write of this buffer belongs to the capturing job's
  // trace group, not the writer thread's (it has none).
  buf.correlation = obs::correlation_id();

  {
    std::lock_guard<std::mutex> lock(mu_);
    ready_.push_back(idx);
    ++stats_.captured;
    stats_.capture_seconds += total.seconds();
  }
  cv_free_.notify_all();  // writer waits on cv_free_ too
}

void SnapshotWriter::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return (ready_.empty() && !writing_) || stop_; });
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

SnapshotWriter::Stats SnapshotWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SnapshotWriter::writer_loop() {
  const Geometry g{extents_.nx, extents_.ny, extents_.nz};
  for (;;) {
    std::size_t idx = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_free_.wait(lock, [this] { return !ready_.empty() || stop_; });
      if (ready_.empty()) return;  // stop_ with a drained queue
      idx = ready_.front();
      ready_.pop_front();
      writing_ = true;
    }
    Buffer& buf = buffers_[idx];
    util::Timer t;
    std::int64_t bytes = 0;
    std::exception_ptr err;
    obs::ScopedCorrelation correlation(buf.correlation);
    OBS_SPAN("snapshot.write", buf.info.steps_done);
    try {
      fault::maybe_fail("snapshot.writer");
      if (buf.keep > 1) rotate_snapshots(buf.path, buf.keep);
      write_file_atomic(buf.path, [&](std::ostream& os) {
        const double* rows = buf.rows.get();
        serialize_snapshot(os, buf.info, g, [&](int f, int j, int k) {
          const std::size_t field_off = static_cast<std::size_t>(f) * g.field_doubles();
          const std::size_t plane_off =
              static_cast<std::size_t>(k) * g.ny * g.row_doubles();
          return rows + field_off + plane_off +
                 static_cast<std::size_t>(j) * g.row_doubles();
        });
        bytes = static_cast<std::int64_t>(os.tellp());
      });
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      writing_ = false;
      free_.push_back(idx);
      if (err) {
        if (!error_) error_ = err;
      } else {
        ++stats_.written;
        stats_.bytes_written += bytes;
        stats_.write_seconds += t.seconds();
      }
    }
    if (!err) {
      // Registry lookups re-resolve per write (no cached reference): a
      // checkpoint write is file-I/O-bound.
      obs::Registry& reg = obs::Registry::global();
      reg.counter("io.snapshots_written").inc();
      reg.counter("io.snapshot_bytes").add(bytes);
    }
    cv_free_.notify_all();
    cv_done_.notify_all();
  }
}

}  // namespace emwd::io
