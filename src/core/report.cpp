#include "core/report.hpp"

#include "common/json.hpp"

namespace hetsched {

namespace {

void write_summary(JsonWriter& json, const Summary& summary) {
  json.begin_object();
  json.field("mean", summary.mean);
  json.field("stddev", summary.stddev);
  json.field("min", summary.min);
  json.field("max", summary.max);
  json.field("count", static_cast<std::uint64_t>(summary.count));
  json.end_object();
}

}  // namespace

void write_experiment_json(std::ostream& out, const ExperimentConfig& config,
                           const ExperimentResult& result, bool include_reps) {
  JsonWriter json(out);
  json.begin_object();
  json.key("config");
  json.begin_object();
  json.field("kernel", to_string(config.kernel));
  json.field("strategy", config.strategy);
  json.field("n", static_cast<std::uint64_t>(config.n));
  json.field("p", static_cast<std::uint64_t>(config.p));
  json.field("scenario", config.scenario.name);
  json.field("seed", config.seed);
  json.field("reps", static_cast<std::uint64_t>(config.reps));
  if (config.phase2_fraction.has_value()) {
    json.field("phase2_fraction", *config.phase2_fraction);
  }
  // Engine extras appear only when they deviate from the default flat
  // run, so existing outputs stay byte-identical.
  if (config.timed) {
    json.field("timed", true);
    json.field("comm_bandwidth", config.comm.bandwidth);
    json.field("comm_latency", config.comm.latency);
    json.field("lookahead", static_cast<std::uint64_t>(config.lookahead));
  }
  if (!config.faults.empty()) {
    json.key("faults");
    json.begin_array();
    for (const WorkerFault& f : config.faults) {
      json.begin_object();
      json.field("time", f.time);
      json.field("worker", static_cast<std::uint64_t>(f.worker));
      json.field("factor", f.factor);
      json.end_object();
    }
    json.end_array();
  }
  // Present only when the config came through the spec compiler, so
  // hand-built configs keep their JSON unchanged.
  if (config.config_hash != 0) {
    json.field("config_hash", JsonWriter::hex16(config.config_hash));
  }
  json.end_object();

  json.field("beta", result.beta);
  json.key("normalized");
  write_summary(json, result.normalized);
  json.key("analysis_ratio");
  write_summary(json, result.analysis_ratio);
  json.key("makespan");
  write_summary(json, result.makespan);
  json.key("finish_spread");
  write_summary(json, result.finish_spread);
  json.field("wall_time_sec", result.wall_time_sec);
  json.field("reps_per_sec", result.reps_per_sec);
  json.field("rep_parallelism",
             static_cast<std::uint64_t>(result.rep_parallelism));
  // Like the engine extras above: only present when profiling ran, so
  // unprofiled outputs stay byte-identical.
  if (result.profile.enabled) {
    json.key("profile");
    write_profile_json(json, result.profile);
  }

  if (include_reps) {
    json.key("reps_detail");
    json.begin_array();
    for (const auto& rep : result.reps) {
      json.begin_object();
      json.field("normalized", rep.normalized);
      json.field("lower_bound", rep.lower_bound);
      json.field("total_blocks", rep.sim.total_blocks);
      json.field("makespan", rep.sim.makespan);
      if (config.timed) {
        json.field("link_busy_time", rep.sim.link_busy_time);
      }
      if (!config.faults.empty()) {
        json.field("requeued_tasks", rep.sim.requeued_tasks);
        json.field("crashed_workers",
                   static_cast<std::uint64_t>(rep.sim.crashed_workers));
      }
      json.key("speeds");
      json.begin_array();
      for (const double s : rep.speeds) json.value(s);
      json.end_array();
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  out << '\n';
}

void write_sweep_json(std::ostream& out, const std::string& x_name,
                      const std::vector<SweepPoint>& points) {
  JsonWriter json(out);
  json.begin_object();
  json.field("x_name", x_name);
  json.key("points");
  json.begin_array();
  for (const auto& point : points) {
    json.begin_object();
    json.field("x", point.x);
    json.key("series");
    json.begin_object();
    for (const auto& [name, summary] : point.normalized) {
      json.key(name);
      write_summary(json, summary);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
}

}  // namespace hetsched
