#include "exec/engine.hpp"

#include <algorithm>
#include <climits>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "util/json.hpp"

namespace emwd::exec {

void accumulate_work(EngineStats& into, const EngineStats& from) {
  into.lups += from.lups;
  into.tiles_executed += from.tiles_executed;
  into.barrier_episodes += from.barrier_episodes;
  into.queue_wait_seconds += from.queue_wait_seconds;
  into.barrier_wait_seconds += from.barrier_wait_seconds;
  into.halo_exchange_seconds += from.halo_exchange_seconds;
  into.halo_bytes_moved += from.halo_bytes_moved;
  into.halo_wait_seconds += from.halo_wait_seconds;
  into.halo_hidden_seconds += from.halo_hidden_seconds;
  into.halo_staged_bytes += from.halo_staged_bytes;
  into.halo_unstaged_bytes += from.halo_unstaged_bytes;
  into.halo_stage_seconds += from.halo_stage_seconds;
  into.halo_unstage_seconds += from.halo_unstage_seconds;
  // Like kernel_isa: an empty transport is the resting default, so any
  // contributor that named one promotes the aggregate.
  if (!from.halo_transport.empty()) into.halo_transport = from.halo_transport;
  // "scalar" is the resting default; any contributor that dispatched to a
  // different ISA promotes the aggregate, so a partial SIMD run is visible.
  if (from.kernel_isa != nullptr && from.kernel_isa[0] != '\0' &&
      std::strcmp(from.kernel_isa, "scalar") != 0) {
    into.kernel_isa = from.kernel_isa;
  }
}

EngineStats& EngineStats::merge(const EngineStats& other) {
  const double total = seconds + other.seconds;
  mlups = total > 0.0 ? (mlups * seconds + other.mlups * other.seconds) / total
                      : std::max(mlups, other.mlups);
  seconds = total;
  steps += other.steps;
  shards = std::max(shards, other.shards);
  accumulate_work(*this, other);
  return *this;
}

std::string EngineStats::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"seconds\":" << seconds << ",\"steps\":" << steps << ",\"lups\":" << lups
     << ",\"mlups\":" << mlups << ",\"tiles_executed\":" << tiles_executed
     << ",\"barrier_episodes\":" << barrier_episodes
     << ",\"queue_wait_seconds\":" << queue_wait_seconds
     << ",\"barrier_wait_seconds\":" << barrier_wait_seconds
     << ",\"shards\":" << shards
     << ",\"halo_exchange_seconds\":" << halo_exchange_seconds
     << ",\"halo_bytes_moved\":" << halo_bytes_moved
     << ",\"halo_wait_seconds\":" << halo_wait_seconds
     << ",\"halo_hidden_seconds\":" << halo_hidden_seconds
     << ",\"halo_exposed_seconds\":" << halo_exposed_seconds()
     << ",\"halo_staged_bytes\":" << halo_staged_bytes
     << ",\"halo_unstaged_bytes\":" << halo_unstaged_bytes
     << ",\"halo_stage_seconds\":" << halo_stage_seconds
     << ",\"halo_unstage_seconds\":" << halo_unstage_seconds
     << ",\"halo_transport\":" << util::json_quote(halo_transport)
     << ",\"kernel_isa\":" << util::json_quote(kernel_isa) << '}';
  return os.str();
}

EngineStats EngineStats::from_json(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw std::invalid_argument("EngineStats::from_json: expected an object");
  }
  const auto checked_int = [](long x, const char* what) {
    if (x < INT_MIN || x > INT_MAX) {
      throw std::invalid_argument(std::string("EngineStats::from_json: ") + what +
                                  " out of int range");
    }
    return static_cast<int>(x);
  };
  EngineStats s;
  s.seconds = v.get_double("seconds", 0.0);
  s.steps = v.get_int("steps", 0);
  s.lups = v.get_int("lups", 0);
  s.mlups = v.get_double("mlups", 0.0);
  s.tiles_executed = v.get_int("tiles_executed", 0);
  s.barrier_episodes = v.get_int("barrier_episodes", 0);
  s.queue_wait_seconds = v.get_double("queue_wait_seconds", 0.0);
  s.barrier_wait_seconds = v.get_double("barrier_wait_seconds", 0.0);
  s.shards = checked_int(v.get_int("shards", 1), "shards");
  s.halo_exchange_seconds = v.get_double("halo_exchange_seconds", 0.0);
  s.halo_bytes_moved = v.get_int("halo_bytes_moved", 0);
  s.halo_wait_seconds = v.get_double("halo_wait_seconds", 0.0);
  s.halo_hidden_seconds = v.get_double("halo_hidden_seconds", 0.0);
  // halo_exposed_seconds is derived (wait + copy - hidden); ignored on read.
  s.halo_staged_bytes = v.get_int("halo_staged_bytes", 0);
  s.halo_unstaged_bytes = v.get_int("halo_unstaged_bytes", 0);
  s.halo_stage_seconds = v.get_double("halo_stage_seconds", 0.0);
  s.halo_unstage_seconds = v.get_double("halo_unstage_seconds", 0.0);
  s.halo_transport = v.get_string("halo_transport", "");
  // kernel_isa is a static never-dangling string in EngineStats; intern the
  // known names and degrade anything else to the scalar default.
  const std::string isa = v.get_string("kernel_isa", "scalar");
  s.kernel_isa = isa == "avx512" ? "avx512" : isa == "avx2" ? "avx2" : "scalar";
  return s;
}

int run_segmented(Engine& engine, grid::FieldSet& fs, int steps, int every,
                  const std::function<bool(int done)>& boundary, EngineStats& stats) {
  const int segment = every > 0 ? every : steps;
  int done = 0;
  while (done < steps) {
    const int n = std::min(segment, steps - done);
    engine.run(fs, n);
    stats.merge(engine.stats());
    done += n;
    if (done < steps && !boundary(done)) break;
  }
  return done;
}

std::string MwdParams::describe() const {
  std::ostringstream os;
  os << "mwd{dw=" << dw << ",bz=" << bz << ",tg=" << tx << "x" << tz << "x" << tc
     << ",groups=" << num_tgs
     << (schedule == TileSchedule::StaticWave ? ",static" : "") << "}";
  return os.str();
}

}  // namespace emwd::exec
