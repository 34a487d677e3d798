// Workloads of the end-to-end benchmark and the library calls they
// share between the untraced trials, the set-up timing and the traced
// pass.
//
// A workload is one to two checked-in `.hspec` files (workloads/) plus,
// for timed_dag, a Cholesky DAG part defined here because the spec
// format has no DAG section. Loading runs the same spec pipeline as
// `hetsched_cli campaign --spec=...`: parse -> resolve -> validate ->
// compile.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "platform/platform.hpp"
#include "sim/strategy.hpp"
#include "spec/compile.hpp"

namespace e2e {

/// The Cholesky DAG part of a workload: every DAG policy runs `reps`
/// reps on a tiled Cholesky graph under the workload's faults.
struct DagPart {
  std::uint32_t tiles = 0;
  std::uint32_t p = 0;
  std::uint32_t reps = 0;
  std::uint64_t seed = 0;
  std::vector<hetsched::WorkerFault> faults;
};

struct Workload {
  std::string name;
  std::vector<std::string> specs;  // file names under workloads/
  std::uint32_t min_trials = 1;    // K: timed trials per run, at least
  std::optional<DagPart> dag;
};

/// The benchmark's workloads, in the order `--workload=all` runs them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct LoadOptions {
  std::string dir;                    // holds workloads/ and golden/
  std::optional<std::uint64_t> seed;  // overrides every spec and DAG seed
  bool smoke = false;                 // shrink every size (--smoke)
};

/// A workload after the spec pipeline: what one trial runs.
struct Loaded {
  std::vector<hetsched::CompiledCampaign> campaigns;
  std::optional<DagPart> dag;
  std::unique_ptr<hetsched::CholeskyGraph> graph;  // set iff dag
  double spec_s = 0.0;   // wall time of the spec pipeline
  double graph_s = 0.0;  // wall time of building the DAG graph
};

/// Parses, resolves, validates and compiles the workload's specs and
/// builds its DAG graph. Throws hetsched::SpecError on a bad spec.
Loaded load_workload(const Workload& workload, const LoadOptions& options);

/// The seed run_experiment gives rep `rep` of `config`.
std::uint64_t rep_seed(const hetsched::ExperimentConfig& config,
                       std::uint32_t rep);

/// Unit tasks of one instance of the entry's kernel (N^2 or N^3).
std::uint64_t instance_tasks(const hetsched::ExperimentConfig& config);

/// Builds the entry's strategy for one rep exactly as run_single does:
/// the 2-phase strategies get the configured fraction, else exp(-beta)
/// with `beta` = resolve_beta(config).
std::unique_ptr<hetsched::Strategy> build_strategy(
    const hetsched::ExperimentConfig& config, std::uint64_t seed, double beta);

/// Seed and platform of DAG rep `rep`, drawn as bench/ext_cholesky does.
std::uint64_t dag_rep_seed(const DagPart& dag, std::uint32_t rep);
hetsched::Platform dag_platform(const DagPart& dag, std::uint64_t rep_seed);

/// Runs DAG rep `rep` of `policy` untraced; `platform` receives the
/// rep's speed draw, which the output checks need.
hetsched::DagSimResult run_dag_rep(const Loaded& loaded,
                                   const std::string& policy,
                                   std::uint32_t rep,
                                   hetsched::Platform& platform);

/// Seconds on the steady clock since an arbitrary origin.
double now_s();

}  // namespace e2e
