#include "sim/trace_export.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/sampler.hpp"

namespace hetsched {

void export_chrome_trace(std::ostream& out, const RecordingTrace& trace,
                         const Platform& platform,
                         const TimeSeriesSampler* counters) {
  // Chrome tracing uses microsecond timestamps; scale simulation time
  // units by 1e6 so durations stay readable.
  constexpr double kScale = 1e6;

  JsonWriter json(out, /*pretty=*/false);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();

  // Completions arrive in simulated-time order, so clamping each
  // reconstructed duration into the gap since the worker's previous
  // completion keeps the Gantt rows overlap-free even when per-task
  // perturbation makes 1/speed only an estimate.
  std::vector<double> prev_end(platform.size(), 0.0);
  for (const auto& ev : trace.completions()) {
    const double gap = std::max(0.0, ev.time - prev_end[ev.worker]);
    const double duration = std::min(1.0 / platform.speed(ev.worker), gap);
    prev_end[ev.worker] = ev.time;
    json.begin_object();
    json.field("name", "task " + std::to_string(ev.task));
    json.field("cat", "compute");
    json.field("ph", "X");
    json.field("ts", (ev.time - duration) * kScale);
    json.field("dur", duration * kScale);
    json.field("pid", 1);
    json.field("tid", static_cast<std::int64_t>(ev.worker));
    json.end_object();
  }

  for (const auto& ev : trace.assignments()) {
    const std::uint64_t blocks = ev.assignment.block_count();
    if (blocks == 0) continue;
    json.begin_object();
    json.field("name", "recv " + std::to_string(blocks) + " block(s)");
    json.field("cat", "comm");
    json.field("ph", "i");  // instant event
    json.field("s", "t");   // thread scope
    json.field("ts", ev.time * kScale);
    json.field("pid", 1);
    json.field("tid", static_cast<std::int64_t>(ev.worker));
    json.end_object();
  }

  for (const auto& ev : trace.phase_switches()) {
    json.begin_object();
    json.field("name", "phase switch (" +
                           std::to_string(ev.tasks_remaining) +
                           " tasks remain)");
    json.field("cat", "phase");
    json.field("ph", "i");
    json.field("s", "g");  // global scope: a full-height marker
    json.field("ts", ev.time * kScale);
    json.field("pid", 1);
    json.field("tid", 0);
    json.end_object();
  }

  for (const auto& ev : trace.fallbacks()) {
    json.begin_object();
    json.field("name", "random fallback (" +
                           std::to_string(ev.tasks_remaining) +
                           " tasks remain)");
    json.field("cat", "phase");
    json.field("ph", "i");
    json.field("s", "g");  // global scope: a full-height marker
    json.field("ts", ev.time * kScale);
    json.field("pid", 1);
    json.field("tid", 0);
    json.end_object();
  }

  if (counters != nullptr) {
    const auto& names = counters->channel_names();
    for (std::size_t row = 0; row < counters->num_samples(); ++row) {
      for (std::size_t c = 0; c < names.size(); ++c) {
        json.begin_object();
        json.field("name", names[c]);
        json.field("cat", "metrics");
        json.field("ph", "C");  // counter track
        json.field("ts", counters->sample_time(row) * kScale);
        json.field("pid", 1);
        json.key("args");
        json.begin_object();
        json.field("value", counters->sample_value(row, c));
        json.end_object();
        json.end_object();
      }
    }
  }

  json.end_array();
  json.field("displayTimeUnit", "ms");
  // Chrome's about:tracing ignores unknown top-level keys; consumers
  // (and the analyze warning path) read the truncation marker here.
  json.key("metadata");
  json.begin_object();
  json.field("dropped_events", trace.dropped_events());
  json.end_object();
  json.end_object();
  out << '\n';
}

}  // namespace hetsched
