// High-level experiment API: one call = one paper data point.
//
// Wraps platform draw -> strategy construction -> simulation ->
// normalization into a repeatable, seeded experiment with aggregation
// over repetitions, exactly the protocol behind every figure: each
// point is the average over `reps` independent draws, normalized by the
// kernel's communication lower bound.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/profiler.hpp"
#include "platform/platform.hpp"
#include "platform/scenario.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"

namespace hetsched {

class ProgressReporter;  // obs/progress.hpp

enum class Kernel { kOuter, kMatmul };

/// Parses "outer" / "matmul".
Kernel kernel_from_string(const std::string& s);
std::string to_string(Kernel kernel);

struct ExperimentConfig {
  Kernel kernel = Kernel::kOuter;
  /// Strategy name understood by the kernel's factory.
  std::string strategy = "DynamicOuter";
  std::uint32_t n = 100;  // blocks per dimension (the paper's N/l)
  std::uint32_t p = 20;   // workers
  Scenario scenario = paper_default_scenario();
  /// Fraction of tasks served by phase 2 for the 2-phase strategies.
  /// nullopt = derive from the homogeneous-platform optimal beta
  /// (Section 3.6), the speed-agnostic default.
  std::optional<double> phase2_fraction;
  std::uint64_t seed = 42;
  std::uint32_t reps = 10;
  /// Link selection: false = the free link (CommModel::free() with
  /// lookahead 1, the paper's overlap model), true = `comm` and
  /// `lookahead` (serial uplink + prefetch). Both run through the one
  /// engine (sim/engine.hpp), so faults/perturbation/trace behave
  /// identically.
  bool timed = false;
  /// Comm-timed knobs; ignored when `timed` is false.
  CommModel comm{};
  std::uint32_t lookahead = 4;
  /// Scripted crashes / stragglers, applied to every repetition
  /// (on top of the scenario's perturbation).
  std::vector<WorkerFault> faults{};
  /// Threads for the replication loop. 0 = auto: claim workers from the
  /// process-wide parallelism budget (runtime/thread_pool.hpp), which
  /// falls back to serial reps when an enclosing campaign already holds
  /// the budget. A nonzero value is honored exactly (capped at the
  /// shard count). Results are bit-identical for every setting.
  std::uint32_t parallelism = 0;
  /// Ignored; kept only because bench/e2e/workload.cpp assigns it.
  std::uint32_t lanes = 1;
  /// Wall-clock self-profiling (obs/profiler.hpp). Adds O(1) clock
  /// reads per rep; totals land in ExperimentResult::profile. Never
  /// affects sim results (pinned by the observability determinism
  /// tests).
  bool profile = false;
  /// Live heartbeat sink (obs/progress.hpp); the rep loop reports every
  /// completed rep into it. Not owned. May be null.
  ProgressReporter* progress = nullptr;
  /// Canonical configuration hash (spec/spec.hpp config_hash), stamped
  /// by the spec compiler. 0 = unset: hand-built configs keep their
  /// report JSON unchanged; the field is emitted only when nonzero.
  /// Paired with `seed`, this is the result-cache key (ROADMAP item 1).
  std::uint64_t config_hash = 0;
};

struct RepOutcome {
  SimResult sim;
  double lower_bound = 0.0;
  double normalized = 0.0;       // total blocks / lower bound
  double analysis_ratio = 0.0;   // model prediction for this draw's speeds
  double beta = 0.0;             // beta used (0 for non-2-phase strategies)
  std::vector<double> speeds;    // the platform draw
};

struct ExperimentResult {
  Summary normalized;       // over repetitions
  Summary analysis_ratio;   // model prediction, same repetitions
  Summary makespan;
  Summary finish_spread;
  double beta = 0.0;        // beta used (0 if not applicable)
  std::vector<RepOutcome> reps;
  // Observability: how the replication engine ran this experiment.
  double wall_time_sec = 0.0;         // wall time of the whole rep loop
  double reps_per_sec = 0.0;          // reps / wall_time_sec
  std::uint32_t rep_parallelism = 1;  // threads the rep loop actually used
  /// Per-site wall-clock totals; enabled iff config.profile was set.
  ProfileTotals profile;
};

/// Optional observation plumbing for one repetition (src/obs builds on
/// this; see docs/observability.md). Everything may stay null/empty.
struct RepInstrumentation {
  /// Receives every engine event (sim/trace.hpp); run_instrumented_rep
  /// puts a sink here that drives a TimeSeriesSampler and records.
  TraceSink* trace = nullptr;
  /// Called after the platform draw and strategy construction, before
  /// the simulation starts — the place to register sampler channels
  /// probing live strategy state.
  std::function<void(Strategy&, const Platform&)> on_ready;
  /// Called after the simulation, while the strategy is still alive —
  /// the last chance to probe it (e.g. a final trajectory sample at
  /// the makespan).
  std::function<void(const SimResult&)> on_done;
};

/// Reusable per-thread state for a sequence of repetitions of the SAME
/// ExperimentConfig. When passed to run_single, the strategy built for
/// the first rep is kept and rewound in place (Strategy::reset) for the
/// next one instead of being reconstructed — pool index arrays and
/// ownership bitsets are refilled in their existing heap blocks, so a
/// rep costs no large allocations after the first. Strategies that do
/// not support reset() fall back to reconstruction transparently.
/// Reps stay bit-identical either way: reset(seed) is pinned to fresh
/// construction with the same seed. Never share one RepContext across
/// different configs or threads.
struct RepContext {
  std::unique_ptr<Strategy> strategy;
  /// Profiling shard the context's reps accumulate into (single-writer,
  /// like the context itself). Null = profiling off.
  ProfShard* prof = nullptr;
};

/// Runs one repetition with an explicit per-rep seed, optionally
/// instrumented. `ctx` (optional) enables strategy reuse across calls
/// with the same config — see RepContext.
RepOutcome run_single(const ExperimentConfig& config, std::uint64_t rep_seed,
                      const RepInstrumentation* instr = nullptr,
                      RepContext* ctx = nullptr);

/// Runs config.reps repetitions with derived seeds and aggregates.
///
/// The rep loop is a deterministic parallel engine: per-rep seeds are
/// independent (`derive_stream(seed, "rep.<r>")`), reps accumulate into
/// a fixed number of stat shards (by rep % kRepShards, independent of
/// the thread count) merged in shard order, and per-rep outcomes land
/// at reps[r]. Summaries and outcome ordering are therefore
/// bit-identical for any parallelism, including 1.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Number of stat shards (= maximum useful rep parallelism).
inline constexpr std::uint32_t kRepShards = 32;

/// The beta the experiment will use: the explicit phase2_fraction if
/// set, else the homogeneous-platform optimum for (kernel, p, n).
double resolve_beta(const ExperimentConfig& config);

/// Analysis-curve prediction for one concrete speed draw.
double analysis_ratio_for(Kernel kernel, std::uint32_t n,
                          const std::vector<double>& speeds, double beta);

}  // namespace hetsched
