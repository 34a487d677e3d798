// Discrete-event master-worker simulation engine.
//
// Reproduces the paper's experimental apparatus: demand-driven workers
// request tasks from a master running a Strategy. Events are
// individual task completions, which makes per-task speed perturbation
// (the dyn.5 / dyn.20 scenarios) exact.
//
// The link between master and workers is a CommModel. The default,
// CommModel::free(), is the paper's standing assumption: communication
// is fully overlapped with computation, so transfers cost volume but
// not time. Any other link is the star topology of sim/comm_model.hpp:
// every assignment crosses the master's serial uplink before its tasks
// become runnable, and workers hide that latency by prefetching — they
// request more work whenever fewer than `lookahead` tasks are pending
// (runnable, in transit or in flight). With lookahead = 1 a worker only
// requests when idle; bench/ext_overlap_threshold shows a small
// constant lookahead recovers compute-bound makespans.
//
// The event loop itself — heap, deterministic tie-breaking, faults,
// perturbation, trace publication — lives in sim/event_core.hpp and is
// shared with the DAG engine; this engine adds the "pull work from the
// strategy until it retires you" refill behaviour and the uplink. A
// crashed worker's runnable, in-transit and in-flight tasks are
// requeued through the strategy (link time already spent on an
// in-transit message stays spent). WorkerFault, WorkerSimStats and
// SimResult are defined there and re-exported here.
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

struct SimConfig {
  /// Stream seed for the engine's own randomness (speed perturbation).
  std::uint64_t seed = 1;
  /// The master's uplink; free by default (the paper's model).
  CommModel comm = CommModel::free();
  /// Target number of pending tasks per worker; >= 1.
  std::uint32_t lookahead = 1;
  /// Per-task speed drift; disabled by default.
  PerturbationModel perturbation{};
  /// Scripted crashes / slowdowns. Crash injection requires the
  /// strategy to support Strategy::requeue.
  std::vector<WorkerFault> faults{};
};

/// Runs `strategy` to completion on `platform`. Workers issue their
/// initial requests at t = 0 in index order; each completion (or, on a
/// timed link, message arrival) triggers new requests until the
/// strategy retires the worker. The strategy must eventually retire
/// idle workers (every strategy in this library does once its pool
/// empties). The free link reports `messages_received`, `starved_time`
/// and `link_busy_time` as 0.
SimResult simulate(Strategy& strategy, const Platform& platform,
                   const SimConfig& config = {}, TraceSink* trace = nullptr);

}  // namespace hetsched
