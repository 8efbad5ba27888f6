#include "batch/job.hpp"

#include <climits>
#include <sstream>
#include <stdexcept>

#include "exec/engine_spec.hpp"

namespace emwd::batch {

namespace {

using util::json_escape;
using util::json_quote;
using util::JsonValue;

const char* status_of(const JobResult& r) {
  if (r.ok) return "ok";
  return r.cancelled ? "cancelled" : "failed";
}

const char* boundary_name(grid::XBoundary b) {
  return b == grid::XBoundary::Periodic ? "periodic" : "dirichlet";
}

grid::XBoundary boundary_from(const std::string& name) {
  if (name == "periodic") return grid::XBoundary::Periodic;
  if (name == "dirichlet") return grid::XBoundary::Dirichlet;
  throw std::invalid_argument("Job::from_json: unknown x_boundary \"" + name + '"');
}

int checked_int(long v, const char* what) {
  if (v < INT_MIN || v > INT_MAX) {
    throw std::invalid_argument(std::string("Job::from_json: ") + what +
                                " out of int range");
  }
  return static_cast<int>(v);
}

}  // namespace

const char* classify_error(const std::exception& e) {
  if (dynamic_cast<const DeadlineExceeded*>(&e)) return "deadline";
  // invalid_argument, domain_error etc. all derive from logic_error: the
  // job description itself is wrong, so retrying is pointless.
  if (dynamic_cast<const std::logic_error*>(&e)) return "permanent";
  return "transient";
}

std::string job_label(const Job& job, std::size_t index) {
  return job.name.empty() ? "job" + std::to_string(index) : job.name;
}

JobResult cancelled_result(const Job& job, std::size_t index) {
  JobResult r;
  r.index = index;
  r.name = job_label(job, index);
  r.cancelled = true;
  r.error = "cancelled";
  r.error_class = "cancelled";
  return r;
}

std::vector<std::string> JobResult::row_header() {
  return {"index",  "name",    "status",   "steps",   "wall_s",
          "mlups",  "total_E", "slot",     "threads", "engine",
          "reused", "plan_hit", "snapshots", "preempts", "resumed",
          "attempts", "error"};
}

std::vector<std::string> JobResult::to_row() const {
  return {std::to_string(index),
          name,
          status_of(*this),
          std::to_string(steps_done),
          util::fmt_double(wall_seconds, 4),
          util::fmt_double(stats.mlups, 4),
          util::fmt_double(total_energy, 12),
          std::to_string(slot),
          std::to_string(threads),
          engine_name.empty() ? engine_spec : engine_name,
          engine_reused ? "1" : "0",
          plan_cache_hit ? "1" : "0",
          std::to_string(snapshots),
          std::to_string(preemptions),
          resumed ? "1" : "0",
          std::to_string(attempts),
          error};
}

util::Table JobResult::table(const std::vector<JobResult>& results) {
  util::Table t(row_header());
  for (const JobResult& r : results) t.add_row(r.to_row());
  return t;
}

std::string JobResult::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"index\":" << index << ",\"name\":\"" << json_escape(name) << '"'
     << ",\"status\":\"" << status_of(*this) << '"';
  if (!error.empty()) os << ",\"error\":\"" << json_escape(error) << '"';
  if (!error_class.empty()) os << ",\"class\":\"" << json_escape(error_class) << '"';
  os << ",\"steps_done\":" << steps_done << ",\"wall_seconds\":" << wall_seconds
     << ",\"total_energy\":" << total_energy
     << ",\"electric_energy\":" << electric_energy
     << ",\"converged_change\":" << converged_change << ",\"absorption\":[";
  for (std::size_t i = 0; i < absorption.size(); ++i) {
    if (i) os << ',';
    os << absorption[i];
  }
  os << "],\"stats\":" << stats.to_json()
     << ",\"slot\":" << slot << ",\"threads\":" << threads
     << ",\"engine_spec\":\"" << json_escape(engine_spec) << '"'
     << ",\"engine_name\":\"" << json_escape(engine_name) << '"'
     << ",\"engine_reused\":" << (engine_reused ? "true" : "false")
     << ",\"plan_cache_hit\":" << (plan_cache_hit ? "true" : "false")
     << ",\"snapshots\":" << snapshots << ",\"preemptions\":" << preemptions
     << ",\"resumed\":" << (resumed ? "true" : "false")
     << ",\"attempts\":" << attempts << ",\"quarantined\":" << quarantined << '}';
  return os.str();
}

JobResult JobResult::from_json(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

JobResult JobResult::from_json(const JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("JobResult::from_json: expected an object");
  }
  JobResult r;
  const long index = doc.get_int("index", 0);
  if (index < 0) throw std::invalid_argument("JobResult::from_json: negative index");
  r.index = static_cast<std::size_t>(index);
  r.name = doc.get_string("name", "");
  const std::string status = doc.get_string("status", "failed");
  if (status == "ok") {
    r.ok = true;
  } else if (status == "cancelled") {
    r.cancelled = true;
  } else if (status != "failed") {
    throw std::invalid_argument("JobResult::from_json: unknown status \"" + status +
                                '"');
  }
  r.error = doc.get_string("error", "");
  r.error_class = doc.get_string("class", "");
  r.steps_done = checked_int(doc.get_int("steps_done", 0), "steps_done");
  r.wall_seconds = doc.get_double("wall_seconds", 0.0);
  r.total_energy = doc.get_double("total_energy", 0.0);
  r.electric_energy = doc.get_double("electric_energy", 0.0);
  r.converged_change = doc.get_double("converged_change", 0.0);
  if (const JsonValue* abs = doc.find("absorption")) {
    for (const JsonValue& v : abs->as_array()) r.absorption.push_back(v.as_number());
  }
  // The engine-stats record rides as one nested canonical object
  // (exec::EngineStats::to_json) instead of per-field copies, so this
  // parser cannot drift from the emitters.
  if (const JsonValue* stats = doc.find("stats")) {
    r.stats = exec::EngineStats::from_json(*stats);
  }
  r.slot = checked_int(doc.get_int("slot", -1), "slot");
  r.threads = checked_int(doc.get_int("threads", 0), "threads");
  r.engine_spec = doc.get_string("engine_spec", "");
  r.engine_name = doc.get_string("engine_name", "");
  r.engine_reused = doc.get_bool("engine_reused", false);
  r.plan_cache_hit = doc.get_bool("plan_cache_hit", false);
  r.snapshots = checked_int(doc.get_int("snapshots", 0), "snapshots");
  r.preemptions = checked_int(doc.get_int("preemptions", 0), "preemptions");
  r.resumed = doc.get_bool("resumed", false);
  r.attempts = checked_int(doc.get_int("attempts", 1), "attempts");
  r.quarantined = checked_int(doc.get_int("quarantined", 0), "quarantined");
  return r;
}

std::string Job::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"name\":" << json_quote(name) << ",\"steps\":" << steps
     << ",\"converge_tol\":" << converge_tol << ",\"max_steps\":" << max_steps
     << ",\"check_every\":" << check_every << ",\"priority\":" << priority
     << ",\"checkpoint_every\":" << checkpoint_every
     << ",\"checkpoint_path\":" << json_quote(checkpoint_path)
     << ",\"checkpoint_keep\":" << checkpoint_keep
     << ",\"resume_from\":" << json_quote(resume_from)
     << ",\"preemptible\":" << (preemptible ? "true" : "false")
     << ",\"deadline_seconds\":" << deadline_seconds
     << ",\"retry\":{\"max_attempts\":" << retry.max_attempts
     << ",\"backoff_seconds\":" << retry.backoff_seconds
     << ",\"backoff_multiplier\":" << retry.backoff_multiplier
     << ",\"max_backoff_seconds\":" << retry.max_backoff_seconds
     << ",\"jitter\":" << retry.jitter << '}'
     << ",\"config\":{\"grid\":[" << config.grid.nx << ',' << config.grid.ny << ','
     << config.grid.nz << "],\"wavelength_cells\":" << config.wavelength_cells
     << ",\"cfl\":" << config.cfl << ",\"pml\":{\"thickness\":" << config.pml.thickness
     << ",\"grading\":" << config.pml.grading << ",\"r0\":" << config.pml.r0
     << ",\"on_x\":" << (config.pml.on_x ? "true" : "false")
     << ",\"on_y\":" << (config.pml.on_y ? "true" : "false")
     << ",\"on_z\":" << (config.pml.on_z ? "true" : "false")
     << "},\"x_boundary\":\"" << boundary_name(config.x_boundary)
     << "\",\"engine_spec\":" << json_quote(config.engine_spec)
     << ",\"threads\":" << config.threads << "}}";
  return os.str();
}

Job Job::from_json(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

Job Job::from_json(const JsonValue& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("Job::from_json: expected an object");
  }
  Job job;
  job.name = doc.get_string("name", "");
  job.steps = checked_int(doc.get_int("steps", job.steps), "steps");
  job.converge_tol = doc.get_double("converge_tol", job.converge_tol);
  job.max_steps = checked_int(doc.get_int("max_steps", job.max_steps), "max_steps");
  job.check_every =
      checked_int(doc.get_int("check_every", job.check_every), "check_every");
  job.priority = checked_int(doc.get_int("priority", job.priority), "priority");
  job.checkpoint_every =
      checked_int(doc.get_int("checkpoint_every", 0), "checkpoint_every");
  if (job.checkpoint_every < 0) {
    throw std::invalid_argument("Job::from_json: negative checkpoint_every");
  }
  job.checkpoint_path = doc.get_string("checkpoint_path", "");
  job.checkpoint_keep =
      checked_int(doc.get_int("checkpoint_keep", job.checkpoint_keep), "checkpoint_keep");
  if (job.checkpoint_keep < 1) {
    throw std::invalid_argument("Job::from_json: checkpoint_keep must be >= 1");
  }
  job.resume_from = doc.get_string("resume_from", "");
  job.preemptible = doc.get_bool("preemptible", false);
  job.deadline_seconds = doc.get_double("deadline_seconds", 0.0);
  if (job.deadline_seconds < 0.0) {
    throw std::invalid_argument("Job::from_json: negative deadline_seconds");
  }
  if (const JsonValue* retry = doc.find("retry")) {
    if (!retry->is_object()) {
      throw std::invalid_argument("Job::from_json: \"retry\" must be an object");
    }
    job.retry.max_attempts = checked_int(
        retry->get_int("max_attempts", job.retry.max_attempts), "retry.max_attempts");
    if (job.retry.max_attempts < 1) {
      throw std::invalid_argument("Job::from_json: retry.max_attempts must be >= 1");
    }
    job.retry.backoff_seconds =
        retry->get_double("backoff_seconds", job.retry.backoff_seconds);
    job.retry.backoff_multiplier =
        retry->get_double("backoff_multiplier", job.retry.backoff_multiplier);
    job.retry.max_backoff_seconds =
        retry->get_double("max_backoff_seconds", job.retry.max_backoff_seconds);
    job.retry.jitter = retry->get_double("jitter", job.retry.jitter);
    if (job.retry.backoff_seconds < 0.0 || job.retry.backoff_multiplier < 1.0 ||
        job.retry.max_backoff_seconds < 0.0 || job.retry.jitter < 0.0 ||
        job.retry.jitter > 1.0) {
      throw std::invalid_argument("Job::from_json: retry policy out of range");
    }
  }

  if (const JsonValue* cfg = doc.find("config")) {
    if (!cfg->is_object()) {
      throw std::invalid_argument("Job::from_json: \"config\" must be an object");
    }
    if (const JsonValue* g = cfg->find("grid")) {
      const JsonValue::Array& a = g->as_array();
      if (a.size() != 3) {
        throw std::invalid_argument("Job::from_json: \"grid\" must be [nx,ny,nz]");
      }
      job.config.grid = {checked_int(a[0].as_int(), "grid.nx"),
                         checked_int(a[1].as_int(), "grid.ny"),
                         checked_int(a[2].as_int(), "grid.nz")};
      if (job.config.grid.nx < 1 || job.config.grid.ny < 1 || job.config.grid.nz < 1) {
        throw std::invalid_argument("Job::from_json: grid extents must be >= 1");
      }
    }
    job.config.wavelength_cells =
        cfg->get_double("wavelength_cells", job.config.wavelength_cells);
    job.config.cfl = cfg->get_double("cfl", job.config.cfl);
    if (const JsonValue* pml = cfg->find("pml")) {
      if (!pml->is_object()) {
        throw std::invalid_argument("Job::from_json: \"pml\" must be an object");
      }
      job.config.pml.thickness =
          checked_int(pml->get_int("thickness", job.config.pml.thickness), "pml.thickness");
      job.config.pml.grading = pml->get_double("grading", job.config.pml.grading);
      job.config.pml.r0 = pml->get_double("r0", job.config.pml.r0);
      job.config.pml.on_x = pml->get_bool("on_x", job.config.pml.on_x);
      job.config.pml.on_y = pml->get_bool("on_y", job.config.pml.on_y);
      job.config.pml.on_z = pml->get_bool("on_z", job.config.pml.on_z);
    }
    job.config.x_boundary =
        boundary_from(cfg->get_string("x_boundary", boundary_name(job.config.x_boundary)));
    job.config.engine_spec = cfg->get_string("engine_spec", "");
    if (!job.config.engine_spec.empty()) {
      // Validate eagerly so a bad spec is rejected at admission, not when an
      // executor thread finally claims the job.
      job.config.engine_spec =
          exec::to_string(exec::parse_engine_spec(job.config.engine_spec));
    }
    job.config.threads = checked_int(cfg->get_int("threads", 0), "threads");
  }
  return job;
}

}  // namespace emwd::batch
