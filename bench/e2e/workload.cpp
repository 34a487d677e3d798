#include "workload.hpp"

#include <chrono>
#include <cmath>

#include "common/rng.hpp"
#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/speed_model.hpp"
#include "spec/parse.hpp"
#include "spec/spec.hpp"

namespace e2e {

using namespace hetsched;

const std::vector<Workload>& workloads() {
  // K (min_trials) is 1 for mm_n1000 because one trial already takes
  // tens of seconds; the others repeat to damp host noise.
  static const std::vector<Workload> kWorkloads = {
      {"fig05", {"fig05.hspec"}, 5, std::nullopt},
      {"fig10", {"fig10.hspec"}, 5, std::nullopt},
      {"mm_n1000", {"mm_n1000.hspec"}, 1, std::nullopt},
      {"timed_dag",
       {"timed_dag_outer.hspec", "timed_dag_matmul.hspec"},
       5,
       DagPart{64, 8, 2, 7, {}}},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Loaded load_workload(const Workload& workload, const LoadOptions& options) {
  Loaded out;
  const double t0 = now_s();
  for (const std::string& file : workload.specs) {
    ScenarioSpec spec = parse_spec_file(options.dir + "/workloads/" + file);
    if (options.seed) spec.seed = *options.seed;
    if (options.smoke) {
      // The analysis tracks the 2-phase strategies within the 5% check
      // only from p ~ 50 and moderate N on (EXPERIMENTS.md), so the
      // smoke sizes stop there.
      spec.ns = {spec.kernel.value_or(Kernel::kOuter) == Kernel::kOuter ? 300u
                                                                         : 40u};
      spec.ps = {50, 100};
      spec.reps = 2;
    }
    spec = resolve_spec(std::move(spec), batch_spec_defaults());
    validate_spec(spec);
    out.campaigns.push_back(compile_spec(spec));
  }
  out.spec_s = now_s() - t0;

  if (workload.dag) {
    DagPart dag = *workload.dag;
    if (options.seed) dag.seed = *options.seed;
    if (options.smoke) dag.tiles = 16;
    // The DAG runs under the same scripted faults as the timed specs.
    if (!out.campaigns.empty() && !out.campaigns.front().entries.empty()) {
      dag.faults = out.campaigns.front().entries.front().config.faults;
    }
    const double t1 = now_s();
    out.graph = std::make_unique<CholeskyGraph>(build_cholesky_graph(dag.tiles));
    // TaskGraph builds its successor lists lazily through mutable
    // members; build them here so DAG reps can share the graph across
    // threads read-only.
    out.graph->graph.successors();
    out.graph_s = now_s() - t1;
    out.dag = std::move(dag);
  }
  return out;
}

std::uint64_t rep_seed(const ExperimentConfig& config, std::uint32_t rep) {
  return derive_stream(config.seed, "rep." + std::to_string(rep));
}

std::uint64_t instance_tasks(const ExperimentConfig& config) {
  return config.kernel == Kernel::kOuter
             ? OuterConfig{config.n}.total_tasks()
             : MatmulConfig{config.n}.total_tasks();
}

std::unique_ptr<Strategy> build_strategy(const ExperimentConfig& config,
                                         std::uint64_t seed, double beta) {
  double phase2_fraction = 0.0;
  if (config.strategy.find("2Phases") != std::string::npos) {
    phase2_fraction = config.phase2_fraction.has_value()
                          ? *config.phase2_fraction
                          : std::exp(-beta);
  }
  if (config.kernel == Kernel::kOuter) {
    OuterStrategyOptions options;
    options.phase2_fraction = phase2_fraction;
    options.lanes = config.lanes;
    return make_outer_strategy(config.strategy, OuterConfig{config.n}, config.p,
                               seed, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = phase2_fraction;
  options.lanes = config.lanes;
  return make_matmul_strategy(config.strategy, MatmulConfig{config.n},
                              config.p, seed, options);
}

std::uint64_t dag_rep_seed(const DagPart& dag, std::uint32_t rep) {
  return derive_stream(dag.seed, "rep." + std::to_string(rep));
}

Platform dag_platform(const DagPart& dag, std::uint64_t rep_seed) {
  Rng speed_rng(derive_stream(rep_seed, "speeds"));
  return make_platform(UniformIntervalSpeeds(10.0, 100.0), dag.p, speed_rng);
}

DagSimResult run_dag_rep(const Loaded& loaded, const std::string& policy,
                         std::uint32_t rep, Platform& platform) {
  const DagPart& dag = *loaded.dag;
  const std::uint64_t seed = dag_rep_seed(dag, rep);
  platform = dag_platform(dag, seed);
  auto chooser = make_dag_policy(policy, seed);
  DagSimConfig config;
  config.seed = seed;
  config.faults = dag.faults;
  return simulate_dag(loaded.graph->graph, platform, *chooser, config);
}

}  // namespace e2e
