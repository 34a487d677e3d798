// Discrete-event master-worker simulation engine.
//
// Reproduces the paper's experimental apparatus: demand-driven workers
// request tasks from a master running a Strategy; communication is
// fully overlapped with computation (the paper's standing assumption),
// so transfers cost volume but not time. Events are individual task
// completions, which makes per-task speed perturbation (the dyn.5 /
// dyn.20 scenarios) exact.
//
// The event loop itself — heap, deterministic tie-breaking, faults,
// perturbation, trace publication — lives in sim/event_core.hpp
// and is shared with simulate_timed and the DAG engine; this engine
// only adds the "pull work from the strategy until it retires you"
// refill behaviour. WorkerFault, WorkerSimStats and SimResult are
// defined there and re-exported here.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/event_core.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"

namespace hetsched {

struct SimConfig {
  /// Stream seed for the engine's own randomness (speed perturbation).
  std::uint64_t seed = 1;
  /// Per-task speed drift; disabled by default.
  PerturbationModel perturbation{};
  /// Scripted crashes / slowdowns. Crash injection requires the
  /// strategy to support Strategy::requeue.
  std::vector<WorkerFault> faults{};
};

/// Runs `strategy` to completion on `platform`. Workers issue their
/// initial requests at t = 0 in index order; each completion triggers
/// either the next queued task or new requests until the strategy
/// retires the worker. The strategy must eventually retire idle workers
/// (every strategy in this library does once its pool empties).
SimResult simulate(Strategy& strategy, const Platform& platform,
                   const SimConfig& config = {}, TraceSink* trace = nullptr);

}  // namespace hetsched
