#include "obs/instrument.hpp"

#include <algorithm>
#include <memory>

namespace hetsched {

namespace {

// Sits between the engine and the recording: advances the sampler and
// counts completions for the completed_fraction channel, then forwards
// every hook. Completions (plus the rare phase switch and fallback)
// drive the sampling clock: they are the densest event stream, and
// every assignment/retirement shares a timestamp with some completion
// in a demand-driven run, so advancing there loses no resolution.
class SamplingTrace final : public TraceSink {
 public:
  SamplingTrace(InstrumentedRep& out, bool record_events)
      : out_(out), downstream_(record_events ? &out.recording : nullptr) {}

  std::uint64_t tasks_completed() const noexcept { return tasks_completed_; }

  void on_assignment(std::uint32_t worker, double now,
                     const Assignment& assignment) override {
    if (downstream_ != nullptr) {
      downstream_->on_assignment(worker, now, assignment);
    }
  }
  void on_completion(std::uint32_t worker, double now, TaskId task) override {
    out_.sampler.advance_to(now);
    ++tasks_completed_;
    if (downstream_ != nullptr) downstream_->on_completion(worker, now, task);
  }
  void on_retire(std::uint32_t worker, double now) override {
    if (downstream_ != nullptr) downstream_->on_retire(worker, now);
  }
  void on_phase_switch(double now, std::uint64_t tasks_remaining) override {
    out_.sampler.advance_to(now);
    if (downstream_ != nullptr) {
      downstream_->on_phase_switch(now, tasks_remaining);
    }
  }
  void on_fallback(double now, std::uint64_t tasks_remaining) override {
    out_.sampler.advance_to(now);
    if (downstream_ != nullptr) downstream_->on_fallback(now, tasks_remaining);
  }

 private:
  InstrumentedRep& out_;
  TraceSink* downstream_;
  std::uint64_t tasks_completed_ = 0;
};

double auto_interval(const ExperimentConfig& config,
                     const Platform& platform) {
  const double n = static_cast<double>(config.n);
  const double total_tasks =
      config.kernel == Kernel::kOuter ? n * n : n * n * n;
  return total_tasks / platform.total_speed() / 192.0;
}

}  // namespace

void run_instrumented_rep(const ExperimentConfig& config,
                          std::uint64_t rep_seed,
                          const InstrumentOptions& options,
                          InstrumentedRep& out) {
  out.recording.set_max_events(options.max_trace_events);
  SamplingTrace sink(out, options.record_events);

  RepInstrumentation instr;
  instr.trace = &sink;
  instr.on_ready = [&](Strategy& strategy, const Platform& platform) {
    out.sampler.set_interval(options.sample_interval > 0.0
                                 ? options.sample_interval
                                 : auto_interval(config, platform));
    const Strategy* s = &strategy;
    out.sampler.add_channel("unmarked_fraction", [s] {
      return static_cast<double>(s->unassigned_tasks()) /
             static_cast<double>(s->total_tasks());
    });
    const SamplingTrace* st = &sink;
    out.sampler.add_channel("completed_fraction", [s, st] {
      return static_cast<double>(st->tasks_completed()) /
             static_cast<double>(s->total_tasks());
    });
    out.sampler.add_channel(
        "phase", [s] { return static_cast<double>(s->current_phase()); });
    if (strategy.knowledge_fraction(0) >= 0.0) {
      // Probes run in registration order within each sample row, so
      // the first knowledge channel sweeps the workers once and the
      // other two read its cache instead of repeating the O(p) scan.
      struct KnowledgeStats {
        double mean = 0.0, min = 0.0, max = 0.0;
      };
      auto stats = std::make_shared<KnowledgeStats>();
      const std::uint32_t p = strategy.workers();
      out.sampler.add_channel("knowledge.mean", [s, p, stats] {
        double sum = 0.0, lo = 1.0, hi = 0.0;
        for (std::uint32_t k = 0; k < p; ++k) {
          const double f = s->knowledge_fraction(k);
          sum += f;
          lo = std::min(lo, f);
          hi = std::max(hi, f);
        }
        stats->mean = sum / static_cast<double>(p);
        stats->min = lo;
        stats->max = hi;
        return stats->mean;
      });
      out.sampler.add_channel("knowledge.min", [stats] { return stats->min; });
      out.sampler.add_channel("knowledge.max", [stats] { return stats->max; });
    }
  };

  // The probes registered above reference the strategy, which only
  // lives inside run_single — take the final sample there, not after.
  instr.on_done = [&](const SimResult& sim) { out.sampler.finish(sim.makespan); };

  out.outcome = run_single(config, rep_seed, &instr);
}

TraceMeta trace_meta(const ExperimentConfig& config,
                     const InstrumentedRep& rep) {
  const SimResult& sim = rep.outcome.sim;
  TraceMeta meta;
  meta.engine = config.timed ? "timed" : "flat";
  meta.kernel = to_string(config.kernel);
  meta.strategy = config.strategy;
  meta.n = config.n;
  meta.p = config.p;
  meta.makespan = sim.makespan;
  meta.bandwidth = config.comm.bandwidth;
  meta.requeued_tasks = sim.requeued_tasks;
  meta.crashed_workers = sim.crashed_workers;
  meta.link_busy_time = sim.link_busy_time;
  meta.speeds = rep.outcome.speeds;
  meta.workers.reserve(sim.workers.size());
  for (const auto& w : sim.workers) {
    meta.workers.push_back({w.tasks_done, w.blocks_received,
                            w.messages_received, w.busy_time, w.finish_time,
                            w.starved_time});
  }
  return meta;
}

}  // namespace hetsched
