// Post-hoc trace analysis: turn a recorded run into answers.
//
// PR 2 gave us raw signals (RecordingTrace events, sampled series); a
// Chrome tab can render them but cannot answer the paper's questions —
// where did each worker's time go, when did the two-phase strategy
// actually switch, what chain of tasks bounded the makespan, and does
// the simulated trajectory track the ODE analysis? This module answers
// all four from a self-describing JSONL trace file, so analysis runs
// long after (and far away from) the simulation.
//
// Trace file format ("hetsched-trace/1", one JSON object per line):
//   {"type":"meta", "schema":"hetsched-trace/1", "engine":"flat|timed|dag",
//    "kernel":"outer|matmul|", "strategy":..., "n":..., "p":...,
//    "makespan":..., "bandwidth":..., "dropped_events":...,
//    "requeued_tasks":..., "crashed_workers":..., "link_busy_time":...,
//    "speeds":[...], optional "graph_critical_path", "makespan_lower_bound",
//    optional "channels":[...]}
//   {"type":"worker","id":k,"tasks":..,"blocks":..,"messages":..,"busy":..,
//    "finish":..,"starved":..}             (exact engine stats, one per worker)
//   {"type":"assign","w":k,"t":time,"tasks":[ids...],"blocks":count}
//   {"type":"complete","w":k,"t":time,"task":id}
//   {"type":"retire","w":k,"t":time}
//   {"type":"phase_switch","t":time,"remaining":count}
//   {"type":"fallback","t":time,"remaining":count}
//   {"type":"sample","t":time,"v":[...]}    (parallel to meta.channels)
//
// This file is the one per-run record: every run total and per-worker
// engine stat lives in its meta and worker records, and event counts
// (assignments, batch sizes, retirements) are counts over its records.
// The meta record comes first; fields added after the format shipped
// (requeued_tasks, crashed_workers, link_busy_time, messages) read as 0
// when absent.
//
// The analyzer has one reader, the file (analyze_trace_stream, via a
// built-in mini JSON parser — the repo deliberately has no JSON DOM
// dependency). A caller holding an in-memory run writes it with
// write_trace_jsonl and reads it back, so every report comes from
// exactly what a file can carry.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/overlay.hpp"

namespace hetsched {

class RecordingTrace;     // sim/trace.hpp
class TimeSeriesSampler;  // obs/sampler.hpp

/// Run-level context a trace file carries alongside the raw events —
/// everything the analyzer needs that the event stream alone cannot
/// provide (platform speeds for the ODE model, exact engine-side worker
/// stats, DAG bounds).
struct TraceMeta {
  std::string engine = "flat";  // "flat" | "timed" | "dag"
  std::string kernel;           // "outer" | "matmul"; "" for DAG runs
  std::string strategy;         // strategy or DAG-policy name
  std::uint32_t n = 0;          // blocks per dimension (0 for DAG runs)
  std::uint32_t p = 0;
  double makespan = 0.0;
  /// Blocks per time unit used for the comm-time estimate
  /// (ExperimentConfig::comm.bandwidth, also written for free-link
  /// runs).
  double bandwidth = 100.0;
  std::uint64_t dropped_events = 0;
  // SimResult run totals (0 without faults).
  std::uint64_t requeued_tasks = 0;
  std::uint64_t crashed_workers = 0;
  double link_busy_time = 0.0;  // timed link only
  std::vector<double> speeds;  // per-worker engine speeds

  /// Exact per-worker engine stats (WorkerSimStats subset). When
  /// absent the analyzer reconstructs busy time from completions and
  /// flags the rows as estimated.
  struct WorkerStats {
    std::uint64_t tasks = 0;
    std::uint64_t blocks = 0;
    std::uint64_t messages = 0;  // timed link only
    double busy = 0.0;
    double finish = 0.0;
    double starved = 0.0;
  };
  std::vector<WorkerStats> workers;

  // DAG runs only; negative = not applicable.
  double graph_critical_path = -1.0;   // work along the graph's critical path
  double makespan_lower_bound = -1.0;  // DagSimResult::makespan_lower_bound
};

/// Writes the full "hetsched-trace/1" JSONL stream: meta + worker stats
/// + every recorded event + (optionally) the sampled series.
void write_trace_jsonl(std::ostream& out, const RecordingTrace& trace,
                       const TraceMeta& meta,
                       const TimeSeriesSampler* sampler = nullptr);

struct AnalyzeOptions {
  /// ODE verdict: alarm when max |sim - model| exceeds this.
  double ode_alarm_threshold = 0.15;
  /// Divergence is measured only where the model still predicts at
  /// least this unmarked fraction (see ode_divergence in
  /// obs/overlay.hpp).
  double ode_support_min = kOdeSupportMin;
};

struct TraceAnalysis {
  TraceMeta meta;

  /// Per-worker wall-time attribution over [0, makespan].
  struct WorkerRow {
    std::uint32_t worker = 0;
    std::uint64_t tasks = 0;
    std::uint64_t blocks = 0;
    double busy = 0.0;     // computing
    double comm = 0.0;     // blocks / bandwidth (estimate; overlapped
                           // on the free link, so busy + comm can
                           // exceed the active window)
    double idle = 0.0;     // active window minus busy
    double tail_idle = 0.0;  // makespan - finish (retired, run ongoing)
    double starved = 0.0;  // timed link: stall with empty queue
    double finish = 0.0;
    bool exact = false;  // stats from the engine vs reconstructed
  };
  std::vector<WorkerRow> workers;

  /// Phase timeline: [begin, end) segments split at on_phase_switch /
  /// on_fallback, with the tasks completed inside each.
  struct PhaseSegment {
    std::string name;  // "phase1" / "phase2" / "fallback" / "run"
    double begin = 0.0;
    double end = 0.0;
    std::uint64_t tasks = 0;
  };
  std::vector<PhaseSegment> phases;

  /// Critical path: the chain of completions ending at the makespan,
  /// walked backwards — consecutive tasks on one worker chain as
  /// compute hops; a gap chains to the latest completion on any worker
  /// at or before the gap's start (the release, under demand-driven
  /// scheduling). Stored in execution order.
  struct CriticalHop {
    std::uint32_t worker = 0;
    std::uint64_t task = 0;
    double start = 0.0;
    double finish = 0.0;
    double wait = 0.0;  // idle gap closed by chaining to another worker
  };
  std::vector<CriticalHop> critical_path;
  double critical_compute = 0.0;  // sum of hop durations
  double critical_wait = 0.0;     // sum of hop waits

  /// ODE divergence (flat/timed runs with an unmarked_fraction series).
  bool ode_available = false;
  double ode_max_divergence = 0.0;        // max |sim - model| on support
  double ode_integrated_divergence = 0.0; // trapezoid integral of |diff|
  double ode_alarm_threshold = 0.0;
  bool ode_alarm = false;

  std::vector<std::string> warnings;
};

/// Parses a "hetsched-trace/1" JSONL stream and analyzes it. Throws
/// std::runtime_error naming the line on malformed input: bad JSON, a
/// record before (or a second) meta, an unknown meta.kernel, speeds
/// whose sum is not finite, a worker index outside [0, p), a sample
/// row whose width differs from meta.channels, or a count or task id
/// that is not an integer in [0, 2^53].
TraceAnalysis analyze_trace_stream(std::istream& in,
                                   const AnalyzeOptions& options = {});

/// One JSON document with every table above.
void write_analysis_json(std::ostream& out, const TraceAnalysis& analysis);

/// Human-readable markdown report (tables + verdicts).
void write_analysis_markdown(std::ostream& out, const TraceAnalysis& analysis);

}  // namespace hetsched
