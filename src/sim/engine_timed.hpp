// Discrete-event engine with explicit communication timing.
//
// Extends the overlap-assuming engine (sim/engine.hpp) with the star
// topology of sim/comm_model.hpp: every assignment travels through the
// master's serial uplink before its tasks become runnable, and workers
// hide that latency by prefetching — they request more work whenever
// fewer than `lookahead` tasks are pending (runnable or in transit).
//
// With lookahead = 1 a worker only requests when idle (no overlap);
// the paper's claim — confirmed by bench/ext_overlap_threshold — is
// that a small constant lookahead recovers compute-bound makespans,
// justifying the main analysis's free-communication assumption.
//
// Built on sim/event_core.hpp: message arrivals are just another event
// kind, so this engine supports the same scripted faults, per-task
// speed perturbation and trace sinks as the flat
// engine, with identical semantics. A crashed worker's runnable,
// in-transit and in-flight tasks are requeued through the strategy
// (link time already spent on in-transit messages stays spent — the
// transfer happened, the receiver died).
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/comm_model.hpp"
#include "sim/event_core.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"

namespace hetsched {

struct TimedSimConfig {
  std::uint64_t seed = 1;
  CommModel comm{};
  /// Target number of pending tasks per worker; >= 1.
  std::uint32_t lookahead = 4;
  PerturbationModel perturbation{};
  /// Scripted crashes / slowdowns; same semantics as SimConfig::faults.
  std::vector<WorkerFault> faults{};
};

/// Unified with the flat engine's stats: the timed-only fields
/// (messages_received, starved_time) are populated here and 0 there.
using TimedWorkerStats = WorkerSimStats;
using TimedSimResult = SimResult;

/// Runs `strategy` to completion under explicit communication timing.
TimedSimResult simulate_timed(Strategy& strategy, const Platform& platform,
                              const TimedSimConfig& config = {},
                              TraceSink* trace = nullptr);

}  // namespace hetsched
