// One-call instrumented repetition: platform draw -> strategy ->
// simulation, with the full observability stack attached.
//
// This is the entry point the CLI (--trace-out/--events-out), the
// ode_divergence bench and the ODE-overlay tests share: it attaches
// a sink that drives the sampler from the engine's clock, registers the
// standard trajectory channels (unmarked-task fraction, knowledge x_k
// statistics, phase), bounds the recorded event stream, and leaves
// every product — the sampled series, the raw event recording and the
// RepOutcome — in one struct ready for the exporters.
//
// Engine-agnostic: run_single routes to the flat or comm-timed engine
// per ExperimentConfig::timed, and both publish through the shared
// EventCore, so the same stack instruments either.
#pragma once

#include <cstdint>

#include "core/experiment.hpp"
#include "obs/analyze.hpp"
#include "obs/sampler.hpp"
#include "sim/trace.hpp"

namespace hetsched {

struct InstrumentOptions {
  /// Simulated-time sampling cadence; <= 0 derives ~192 samples from
  /// the predicted makespan (task count / total platform speed).
  double sample_interval = 0.0;
  /// RecordingTrace cap (see RecordingTrace::set_max_events);
  /// 0 = unbounded, which on a (N/l)^3 matmul run means gigabytes.
  std::size_t max_trace_events = 1u << 20;
  /// Skip the raw event recording entirely (series only).
  bool record_events = true;
};

/// Results of one instrumented repetition; create one per run and pass
/// it by reference.
struct InstrumentedRep {
  TimeSeriesSampler sampler;
  RecordingTrace recording;
  RepOutcome outcome;
};

/// Runs repetition `rep_seed` of `config` fully instrumented. The
/// sampler carries the standard trajectory channels, in order:
/// unmarked_fraction, completed_fraction, phase, and — when the
/// strategy exposes knowledge sets (Strategy::knowledge_fraction) —
/// knowledge.mean, knowledge.min, knowledge.max.
void run_instrumented_rep(const ExperimentConfig& config,
                          std::uint64_t rep_seed,
                          const InstrumentOptions& options,
                          InstrumentedRep& out);

/// The hetsched-trace/1 meta record of `rep`: run identity, the
/// SimResult run totals and the exact per-worker engine stats.
TraceMeta trace_meta(const ExperimentConfig& config,
                     const InstrumentedRep& rep);

}  // namespace hetsched
