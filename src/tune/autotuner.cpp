#include "tune/autotuner.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "dist/halo.hpp"
#include "dist/partition.hpp"
#include "em/coefficients.hpp"
#include "grid/fieldset.hpp"
#include "models/cache_model.hpp"
#include "models/code_balance.hpp"
#include "models/perf_model.hpp"
#include "util/timer.hpp"

namespace emwd::tune {

namespace {

/// Stage 1 on a calibrated machine (ECM-style: time per LUP is the core
/// time at the cache level the tile lives in plus the tile's memory
/// traffic at the thread's share of the bandwidth), times the threads, the
/// group's split efficiency and the share of groups a wavefront keeps busy.
double calibrated_mlups(const exec::MwdParams& p, const grid::Extents& grid,
                        const models::Machine& m, double tile_bytes, double bytes_per_lup) {
  const models::Calibration& k = *m.calibration;
  // A private L2 holds only its thread's share of the group's tile, so the
  // whole L2 is usable (the half-cache rule is for the shared LLC).
  const bool in_l2 = tile_bytes / p.tg_size() <= static_cast<double>(k.l2_bytes);
  const double level_ns = 1e3 / (12.0 * (in_l2 ? k.l2_mlups : k.l3_mlups));
  // x-rows of nx / tx cells pay the row-call overhead the probe's long
  // rows amortize.
  const double row = std::max(1.0, static_cast<double>(grid.nx) / p.tx);
  const double core_ns =
      12.0 * (level_ns + k.row_overhead_ns * (1.0 / row - 1.0 / k.row_cells));
  const double memory_ns = bytes_per_lup * p.threads() / m.bandwidth_bytes_per_s * 1e9;
  const auto eff = models::parallel_efficiency;
  const double split = eff(p.tx, k.drag_tx) * eff(p.tz, k.drag_tz) * eff(p.tc, k.drag_tc);
  // ny / dw whole diamonds stand on one wavefront (the clipped edge tiles
  // are short work); fewer than num_tgs leave groups idle.
  const int diamonds = std::max(1, grid.ny / p.dw);
  const double busy = std::min(1.0, static_cast<double>(diamonds) / p.num_tgs);
  return p.threads() * 1e3 / (core_ns + memory_ns) * split * busy;
}

}  // namespace

Candidate score_candidate(const exec::MwdParams& p, const grid::Extents& grid,
                          const models::Machine& m) {
  Candidate c;
  c.params = p;
  // A calibrated host counts what the engines stream; the paper's machine
  // keeps the paper's 40 arrays, so its figures do not move.
  const double arrays = m.calibration ? models::kEngineArrays : models::kPaperArrays;
  const double tile = models::cache_block_bytes(p.dw, p.bz, grid.nx, arrays);
  c.cache_bytes = tile * p.num_tgs;
  const double usable =
      models::usable_cache_fraction() * static_cast<double>(m.llc_bytes);
  c.overflow = usable > 0.0 ? c.cache_bytes / usable : 1e9;
  const double ideal = models::diamond_bytes_per_lup(p.dw, arrays);
  c.model_bpl = models::degraded_bytes_per_lup(ideal, c.overflow);
  if (m.calibration) {
    // The Eq. 10 roof bounds the calibrated score too (its memory term
    // already keeps it there while every tile streams from memory).
    c.predicted_mlups =
        std::min(calibrated_mlups(p, grid, m, tile, c.model_bpl),
                 models::pmem_mlups(m.bandwidth_bytes_per_s, c.model_bpl));
  } else {
    c.predicted_mlups = models::predict(m, p.threads(), c.model_bpl, /*tiled=*/true).mlups;
  }
  return c;
}

bool candidate_better(const Candidate& a, const Candidate& b) {
  const bool fa = a.overflow <= 1.0, fb = b.overflow <= 1.0;
  if (fa != fb) return fa;
  if (a.predicted_mlups != b.predicted_mlups) return a.predicted_mlups > b.predicted_mlups;
  if (a.params.dw != b.params.dw) return a.params.dw > b.params.dw;
  // Model ties: prefer the intra-tile split shape the paper's measurements
  // favour — 2-3 threads across field components, long x rows per thread.
  const auto comp_pref = [](int tc) { return tc == 2 || tc == 3; };
  if (comp_pref(a.params.tc) != comp_pref(b.params.tc)) return comp_pref(a.params.tc);
  if (a.params.tx != b.params.tx) return a.params.tx < b.params.tx;
  if (a.params.tg_size() != b.params.tg_size()) return a.params.tg_size() > b.params.tg_size();
  if (a.params.bz != b.params.bz) return a.params.bz < b.params.bz;
  return a.params.tz < b.params.tz;
}

TuneResult autotune(const TuneConfig& cfg) {
  const auto params = enumerate_candidates(cfg.threads, cfg.grid, cfg.limits);
  if (params.empty()) throw std::runtime_error("autotune: empty parameter space");

  std::vector<Candidate> scored;
  scored.reserve(params.size());
  for (const auto& p : params) scored.push_back(score_candidate(p, cfg.grid, cfg.machine));

  std::sort(scored.begin(), scored.end(), candidate_better);

  TuneResult result;
  result.ranked = scored;

  if (cfg.timed_refinement) {
    const int k = std::min<int>(cfg.refine_top_k, static_cast<int>(scored.size()));
    grid::Layout layout(cfg.grid);
    grid::FieldSet fs(layout);
    em::build_random_stable(fs, /*seed=*/0x7u);
    double best_time_mlups = -1.0;
    int best_idx = 0;
    for (int i = 0; i < k; ++i) {
      auto engine = exec::make_mwd_engine(scored[static_cast<std::size_t>(i)].params);
      fs.clear_fields();
      engine->run(fs, cfg.refine_steps);
      scored[static_cast<std::size_t>(i)].measured_mlups = engine->stats().mlups;
      if (engine->stats().mlups > best_time_mlups) {
        best_time_mlups = engine->stats().mlups;
        best_idx = i;
      }
    }
    result.ranked = scored;
    result.best_candidate = scored[static_cast<std::size_t>(best_idx)];
  } else {
    result.best_candidate = scored.front();
  }
  result.best = result.best_candidate.params;
  return result;
}

// ------------------------------------------------------ sharded two-stage

ShardedCandidate score_sharded_candidate(int num_shards, int exchange_interval,
                                         const ShardedTuneConfig& cfg) {
  ShardedCandidate c;
  c.plan.num_shards = num_shards;
  c.plan.exchange_interval = exchange_interval;
  c.plan.transport = cfg.transport;

  const int tps = std::max(1, cfg.threads / num_shards);
  const dist::Partitioner part(cfg.grid, num_shards,
                               num_shards > 1 ? exchange_interval : 1);

  // Tune each shard against its REAL extended sub-grid.  A balanced split
  // yields at most a handful of distinct extended heights (remainder blocks,
  // one- vs two-sided ghosts), so memoize the per-height tuning.
  std::map<int, std::pair<Candidate, exec::MwdParams>> by_height;
  double bottleneck_step_seconds = 0.0;
  double total_ext_planes = 0.0;
  for (int s = 0; s < num_shards; ++s) {
    const int ext_nz = part.shard(s).ext_nz();
    auto it = by_height.find(ext_nz);
    if (it == by_height.end()) {
      TuneConfig sub;
      sub.threads = tps;
      sub.grid = {cfg.grid.nx, cfg.grid.ny, ext_nz};
      sub.machine = cfg.machine;
      sub.limits = cfg.limits;
      sub.timed_refinement = false;
      const TuneResult r = autotune(sub);
      it = by_height.emplace(ext_nz, std::make_pair(r.best_candidate, r.best)).first;
    }
    c.per_shard.push_back(it->second.first);
    c.plan.per_shard.push_back(it->second.second);
    const double shard_cells = static_cast<double>(cfg.grid.nx) * cfg.grid.ny * ext_nz;
    const double mlups = std::max(1e-9, it->second.first.predicted_mlups);
    bottleneck_step_seconds = std::max(bottleneck_step_seconds, shard_cells / (mlups * 1e6));
    total_ext_planes += static_cast<double>(ext_nz);
  }

  // Shards advance concurrently, so a round of T steps costs T times the
  // slowest shard's step (the redundant ghost-plane planes are inside each
  // shard's extended grid and thus inside its step time) plus one exchange.
  // The post/wait protocol exposes only the worst single shard's own pull
  // over the bandwidth roof — the remaining bytes hide behind neighboring
  // shards' compute.
  const std::int64_t halo_bytes = dist::HaloExchange::bytes_per_exchange(part);
  const std::int64_t exposed_bytes = dist::HaloExchange::max_shard_bytes_per_exchange(part);
  const double interval = static_cast<double>(exchange_interval);
  c.halo_bytes_per_step = static_cast<double>(halo_bytes) / interval;
  c.exposed_halo_bytes_per_step = static_cast<double>(exposed_bytes) / interval;
  c.redundant_lup_fraction =
      (total_ext_planes - static_cast<double>(cfg.grid.nz)) /
      static_cast<double>(cfg.grid.nz);
  const double halo_seconds = transport_cost_factor(cfg.transport) *
                              static_cast<double>(exposed_bytes) /
                              std::max(1.0, cfg.machine.bandwidth_bytes_per_s);
  const double round_seconds = interval * bottleneck_step_seconds + halo_seconds;
  const double useful = static_cast<double>(cfg.grid.cells());
  c.predicted_mlups = useful * interval / (round_seconds * 1e6);
  return c;
}

ShardedTuneResult autotune_sharded(const ShardedTuneConfig& cfg) {
  ShardedTuneResult result;
  std::vector<int> shard_axis;
  if (cfg.fixed_shards > 0) {
    // A pinned count is still capped by the thread budget (a shard needs a
    // thread) and by what the grid can be partitioned into.
    const int by_threads = std::min(cfg.fixed_shards, std::max(1, cfg.threads));
    shard_axis.push_back(dist::Partitioner::clamp_shards(cfg.grid.nz, by_threads, 1));
  } else {
    shard_axis = enumerate_shard_counts(cfg.threads, cfg.grid, cfg.limits);
  }
  for (int k : shard_axis) {
    std::vector<int> interval_axis;
    if (cfg.fixed_interval > 0) {
      // Clamp a pinned interval to the partition's feasibility bound.
      const int min_owned = std::max(1, cfg.grid.nz / k);
      interval_axis.push_back(k > 1 ? std::min(cfg.fixed_interval, min_owned)
                                    : cfg.fixed_interval);
    } else {
      interval_axis = enumerate_exchange_intervals(k, cfg.grid, cfg.limits);
    }
    for (int t : interval_axis) result.ranked.push_back(score_sharded_candidate(k, t, cfg));
  }
  if (result.ranked.empty()) throw std::runtime_error("autotune_sharded: empty space");
  std::sort(result.ranked.begin(), result.ranked.end(),
            [](const ShardedCandidate& a, const ShardedCandidate& b) {
              if (a.predicted_mlups != b.predicted_mlups) {
                return a.predicted_mlups > b.predicted_mlups;
              }
              // Prefer fewer shards and shallower overlap depth on model ties.
              if (a.plan.num_shards != b.plan.num_shards) {
                return a.plan.num_shards < b.plan.num_shards;
              }
              return a.plan.exchange_interval < b.plan.exchange_interval;
            });

  if (cfg.timed_refinement) {
    const int k = std::min<int>(cfg.refine_top_k, static_cast<int>(result.ranked.size()));
    grid::Layout layout(cfg.grid);
    grid::FieldSet fs(layout);
    em::build_random_stable(fs, /*seed=*/0x7u);
    const std::int64_t useful = static_cast<std::int64_t>(cfg.grid.cells());
    int best_idx = 0;
    double best_mlups = -1.0;
    for (int i = 0; i < k; ++i) {
      ShardedCandidate& cand = result.ranked[static_cast<std::size_t>(i)];
      cand.measured_seconds = time_sharded_plan(cand.plan, fs, cfg);
      cand.measured_mlups = util::mlups(useful, cfg.refine_steps, cand.measured_seconds);
      if (cand.measured_mlups > best_mlups) {
        best_mlups = cand.measured_mlups;
        best_idx = i;
      }
    }
    result.best = result.ranked[static_cast<std::size_t>(best_idx)];
  } else {
    result.best = result.ranked.front();
  }
  return result;
}

double time_sharded_plan(const ShardPlan& plan, grid::FieldSet& fs,
                         const ShardedTuneConfig& cfg) {
  exec::EngineSpec spec = plan.to_spec();
  if (!cfg.numa_bind) spec.add("numa", 0L);
  exec::BuildContext ctx;
  ctx.grid = cfg.grid;
  ctx.threads = cfg.threads;
  auto engine = exec::EngineRegistry::global().build(spec, ctx);
  // The first run allocates the shard FieldSets and faults every page in;
  // it stays outside the timed region even without warmup steps.
  engine->run(fs, std::max(0, cfg.warmup_steps));
  double best_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, cfg.repeats); ++r) {
    fs.clear_fields();
    engine->run(fs, cfg.refine_steps);
    best_seconds = std::min(best_seconds, engine->stats().seconds);
  }
  return best_seconds;
}

util::Table ShardedTuneResult::to_table() const {
  util::Table t({"shards", "interval", "redundant_frac", "halo_MB_per_step",
                 "exposed_halo_MB_per_step", "predicted_mlups", "measured_mlups",
                 "measured_s", "spec"});
  for (const ShardedCandidate& c : ranked) {
    t.add_row({std::to_string(c.plan.num_shards), std::to_string(c.plan.exchange_interval),
               util::fmt_double(c.redundant_lup_fraction, 4),
               util::fmt_double(c.halo_bytes_per_step / (1024.0 * 1024.0), 4),
               util::fmt_double(c.exposed_halo_bytes_per_step / (1024.0 * 1024.0), 4),
               util::fmt_double(c.predicted_mlups, 5),
               util::fmt_double(c.measured_mlups, 5),
               util::fmt_double(c.measured_seconds, 5),
               // A spec string, not describe(): rows paste straight back
               // into any --engine flag.
               exec::to_string(c.plan.to_spec())});
  }
  return t;
}

std::string ShardedTuneResult::to_csv() const { return to_table().to_csv(); }

}  // namespace emwd::tune
