// Extension: dynamic scheduling of tiled Cholesky (the paper's stated
// next step, Section 5). Compares three ready-task policies on a
// heterogeneous platform:
//   RandomDag        - data-oblivious baseline
//   CriticalPathDag  - classic HEFT-style bottom-level priority
//   DataAwareDag     - the paper's locality idea lifted to DAGs
// reporting tile-transfer volume and makespan relative to the
// dependency-aware lower bound max(CP/s_max, W/sum s).
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "platform/platform.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto tiles = args.get_count("tiles", 24);
  const auto reps = args.get_count("reps", 5);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = args.get_count_list("p", {4, 8, 16, 32});
  args.reject_unread();

  const CholeskyGraph ch = build_cholesky_graph(tiles);
  bench::print_header(
      "Extension (Cholesky)", "dynamic DAG scheduling policies",
      "T=" + std::to_string(tiles) + " tiles, " +
          std::to_string(ch.graph.num_tasks()) + " tasks, " +
          std::to_string(ch.graph.num_tiles()) + " tiles of data, reps=" +
          std::to_string(reps));

  std::vector<std::string> columns{"p"};
  for (const auto& name : dag_policy_names()) {
    columns.push_back(name + ".transfers");
    columns.push_back(name + ".makespan_vs_lb");
  }
  CsvWriter csv(std::cout, columns);

  for (const std::uint32_t p : ps) {
    std::vector<double> cells{static_cast<double>(p)};
    for (const auto& name : dag_policy_names()) {
      RunningStats transfers, inflation;
      for (std::uint32_t r = 0; r < reps; ++r) {
        const std::uint64_t rep_seed =
            derive_stream(seed, "rep." + std::to_string(r));
        Rng speed_rng(derive_stream(rep_seed, "speeds"));
        const Platform platform =
            make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
        auto policy = make_dag_policy(name, rep_seed);
        const DagSimResult result = simulate_dag(ch.graph, platform, *policy);
        transfers.push(static_cast<double>(result.total_transfers));
        inflation.push(result.makespan /
                       DagSimResult::makespan_lower_bound(ch.graph, platform));
      }
      cells.push_back(transfers.mean());
      cells.push_back(inflation.mean());
    }
    csv.row(cells);
  }
  std::cout << "# transfers: tile movements under a write-invalidate cache "
               "model; makespan_vs_lb: 1.0 = dependency-aware lower bound\n";
  return 0;
}
