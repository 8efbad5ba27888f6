#include "models/calibrate.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "grid/fieldset.hpp"
#include "kernels/update.hpp"
#include "models/code_balance.hpp"
#include "obs/trace.hpp"
#include "util/affinity.hpp"
#include "util/barrier.hpp"
#include "util/timer.hpp"

namespace emwd::models {
namespace {

constexpr int kLongRow = 128;
constexpr int kShortRow = 16;
constexpr int kSlabRows = 4;          // y extent of every probe slab
constexpr int kRounds = 3;            // each term is the median of its rounds
constexpr double kWindowS = 0.005;    // one timed measurement
constexpr double kSpinUpS = 0.015;    // untimed, before the first one
constexpr std::size_t kMaxTriadArrayBytes = 32ull << 20;

/// The probe team: one thread per cpu of `cpus`, the caller as rank 0,
/// that run one phase at a time.  Members spin on a barrier between phases.
class Team {
 public:
  explicit Team(const std::vector<int>& cpus)
      : size_(static_cast<int>(cpus.size())), start_(size_), finish_(size_) {
    for (int r = 1; r < size_; ++r) {
      // The cpu list is built here: a member that called malloc would get
      // an arena of its own, which outlives the probe.
      std::vector<int> cpu{cpus[static_cast<std::size_t>(r)]};
      members_.emplace_back([this, r, cpu = std::move(cpu)] {
        util::pin_current_thread(cpu);
        for (;;) {
          start_.arrive_and_wait();
          if (quit_) return;
          (*phase_)(r);
          finish_.arrive_and_wait();
        }
      });
    }
  }
  ~Team() {
    quit_ = true;
    start_.arrive_and_wait();
    for (std::thread& t : members_) t.join();
  }
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int size() const { return size_; }

  /// Every member calls fn(rank) once; returns the phase's wall seconds.
  double run(const std::function<void(int)>& fn) {
    phase_ = &fn;
    util::Timer t;
    start_.arrive_and_wait();
    fn(0);
    finish_.arrive_and_wait();
    return t.seconds();
  }

 private:
  int size_;
  util::SpinBarrier start_, finish_;
  const std::function<void(int)>* phase_ = nullptr;
  bool quit_ = false;  // ordered by the start barrier
  std::vector<std::thread> members_;
};

/// How a phase divides its slab among the team: private slabs, or one
/// shared slab split like a thread group splits a tile.
enum class Split { Private, X, Z, Comp };

/// z extent of a (nx x kSlabRows x nz) slab whose padded storage is about
/// `bytes`.
int planes_for(std::size_t bytes, int nx) {
  const grid::Layout plane({nx, kSlabRows, 1});
  const double per_plane =
      kEngineArrays * 16.0 * static_cast<double>(plane.padded_cells()) / plane.pz();
  return std::max(1, static_cast<int>(static_cast<double>(bytes) / per_plane) - 2);
}

/// One half-step of rank r's share: the six components of the phase, one
/// run of the slab's rows per plane, split like traverse_tile splits a tile.
void half_step(grid::FieldSet& fs, bool h_phase, Split split, int parts, int r) {
  const auto& comps = h_phase ? kernels::kHComps : kernels::kEComps;
  const grid::Layout& L = fs.layout();
  int c0 = 0, cstep = 1, z0 = 0, zstep = 1, x0 = 0, x1 = L.nx();
  if (split == Split::Comp) c0 = r, cstep = parts;
  if (split == Split::Z) z0 = r, zstep = parts;
  if (split == Split::X) x0 = L.nx() * r / parts, x1 = L.nx() * (r + 1) / parts;
  for (int ci = c0; ci < 6; ci += cstep) {
    for (int z = z0; z < L.nz(); z += zstep) {
      kernels::update_comp_rows(fs, comps[static_cast<std::size_t>(ci)], x0, x1, 0, L.ny(), z);
    }
  }
}

/// A timed phase: every rank updates its share for about `window` seconds.
/// Private slabs run freely; a shared slab synchronizes every half-step.
/// Returns thread-ns per component-cell update.
double measure(Team& team, std::vector<std::unique_ptr<grid::FieldSet>>& slabs, Split split,
               double window) {
  const int parts = team.size();
  std::vector<long> halves(static_cast<std::size_t>(parts), 0);
  util::SpinBarrier sync(parts);
  std::atomic<bool> stop{false};
  util::Timer clock;
  const double wall = team.run([&](int r) {
    grid::FieldSet& fs = *slabs[split == Split::Private ? static_cast<std::size_t>(r) : 0];
    long n = 0;
    for (;;) {
      half_step(fs, true, split, parts, r);
      if (split != Split::Private) sync.arrive_and_wait();
      half_step(fs, false, split, parts, r);
      n += 2;
      if (split == Split::Private) {
        if (clock.seconds() >= window) break;
        continue;
      }
      // Rank 0 decides before the barrier and everyone reads after it, so
      // the team leaves on the same step.
      if (r == 0) stop.store(clock.seconds() >= window, std::memory_order_relaxed);
      sync.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) break;
    }
    halves[static_cast<std::size_t>(r)] = n;
  });
  double comp_cells = 0.0;
  for (std::size_t r = 0; r < slabs.size(); ++r) {
    // A shared slab's half-step covers it once, whoever did the work.
    const long n = split == Split::Private ? halves[r] : halves[0];
    comp_cells += 6.0 * static_cast<double>(n) *
                  static_cast<double>(slabs[r]->layout().interior().cells());
  }
  return wall * parts * 1e9 / comp_cells;
}

std::vector<std::unique_ptr<grid::FieldSet>> make_slabs(int count, const grid::Extents& e) {
  std::vector<std::unique_ptr<grid::FieldSet>> slabs;
  for (int i = 0; i < count; ++i) {
    slabs.push_back(std::make_unique<grid::FieldSet>(grid::Layout(e)));
  }
  return slabs;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// STREAM triad a = b + s*c over three arrays of `bytes` each, partitioned
/// over the team; 24 bytes per element, best of two passes.
double triad_bytes_per_s(Team& team, std::size_t bytes) {
  const std::size_t n = bytes / sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  const int parts = team.size();
  const auto chunk = [&](int r) {
    return std::make_pair(n * static_cast<std::size_t>(r) / parts,
                          n * static_cast<std::size_t>(r + 1) / parts);
  };
  team.run([&](int r) {  // first touch, same partition
    const auto [lo, hi] = chunk(r);
    std::fill(a.get() + lo, a.get() + hi, 0.0);
    std::fill(b.get() + lo, b.get() + hi, 1.0);
    std::fill(c.get() + lo, c.get() + hi, 2.0);
  });
  double best = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const double s = team.run([&](int r) {
      const auto [lo, hi] = chunk(r);
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
    });
    best = std::max(best, 24.0 * static_cast<double>(n) / s);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("calibrate_host: triad gave a wrong result");
  return best;
}

/// The probe proper, on a thread of its own (rank 0 of the team).
Machine probe(const util::HostInfo& info, const std::vector<int>& cpus) {
  util::Timer total;
  util::pin_current_thread({cpus.front()});
  Team team(cpus);
  const int T = team.size();

  // A thread's slab fits a quarter of its L2, or spills 4x past it while
  // the team's slabs stay inside half the LLC.
  const std::size_t l2_slab = std::max<std::size_t>(info.l2_bytes / 4, 64 << 10);
  const std::size_t l3_slab = std::min<std::size_t>(4 * info.l2_bytes, info.l3_bytes / (2 * T));
  const int nz_l2 = planes_for(l2_slab, kLongRow);
  auto l2 = make_slabs(T, {kLongRow, kSlabRows, nz_l2});
  auto short_rows = make_slabs(T, {kShortRow, kSlabRows, planes_for(l2_slab, kShortRow)});
  auto l3 = make_slabs(T, {kLongRow, kSlabRows, planes_for(l3_slab, kLongRow)});
  // Shared slabs give every rank the work of one private L2 slab.
  auto by_x = make_slabs(1, {kLongRow * T, kSlabRows, nz_l2});
  auto by_z = make_slabs(1, {kLongRow, kSlabRows, nz_l2 * T});

  measure(team, l2, Split::Private, kSpinUpS);
  std::vector<double> t_l2, t_short, t_l3, e_x, e_z, e_c;
  for (int round = 0; round < kRounds; ++round) {
    const double base = measure(team, l2, Split::Private, kWindowS);
    t_l2.push_back(base);
    t_short.push_back(measure(team, short_rows, Split::Private, kWindowS));
    t_l3.push_back(measure(team, l3, Split::Private, kWindowS));
    if (T < 2) continue;
    e_x.push_back(measure(team, by_x, Split::X, kWindowS) / base);
    e_z.push_back(measure(team, by_z, Split::Z, kWindowS) / base);
    e_c.push_back(measure(team, by_z, Split::Comp, kWindowS) / base);
  }

  Calibration k;
  k.l2_bytes = info.l2_bytes;
  k.threads = T;
  k.row_cells = kLongRow;
  const double ns_l2 = median(t_l2);
  k.l2_mlups = 1e3 / (12.0 * ns_l2);
  k.l3_mlups = 1e3 / (12.0 * median(t_l3));
  k.row_overhead_ns =
      std::max(0.0, (median(t_short) - ns_l2) / (1.0 / kShortRow - 1.0 / kLongRow));
  // A split never beats private slabs (its barrier alone costs), and a
  // floor keeps the split classes from tying with 1WD in the ranking.
  const auto drag = [T](const std::vector<double>& slowdown) {
    if (slowdown.empty()) return 1.0;  // one cpu: a split only time-slices
    return std::max(0.01, (median(slowdown) - 1.0) / (T - 1));
  };
  k.drag_tx = drag(e_x);
  k.drag_tz = drag(e_z);
  k.drag_tc = drag(e_c);
  for (auto* slabs : {&l2, &short_rows, &l3, &by_x, &by_z}) slabs->clear();

  Machine m;
  m.name = "host";
  m.cores = info.logical_cpus;
  m.llc_bytes = info.l3_bytes;
  // Arrays as large as the LLC stream three times its size; the cap keeps
  // the probe's time and memory bounded on hosts that report a huge LLC.
  m.bandwidth_bytes_per_s = triad_bytes_per_s(
      team, std::clamp<std::size_t>(info.l3_bytes, 8 << 20, kMaxTriadArrayBytes));
  k.seconds = total.seconds();
  m.calibration = k;
  return m;
}

}  // namespace

Machine calibrate_host(const util::HostInfo& info) {
  OBS_SPAN("tune.calibrate");
  // One cpu per probe thread from the process's mask, whatever slot the
  // caller is pinned to.  Pinned, because this guest's scheduler can leave
  // new threads stacked on their creator's cpu for hundreds of milliseconds.
  std::vector<int> cpus = util::get_process_affinity().cpus;
  if (cpus.empty()) {
    for (int c = 0; c < info.logical_cpus; ++c) cpus.push_back(c);
  }
  cpus.resize(std::clamp<std::size_t>(cpus.size(), 1, 3));
  // A thread of its own also gives the probe's slabs a malloc arena of
  // their own: on the caller's heap they left holes that raised a daemon's
  // peak RSS from 8.3 to 12.5 MB.  The trim hands the freed pages back.
  Machine out;
  std::thread([&] {
    out = probe(info, cpus);
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }).join();
  return out;
}

}  // namespace emwd::models
