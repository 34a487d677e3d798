// Figure 8: behaviour of the outer-product heuristics under the named
// heterogeneity scenarios (unif.1, unif.2, set.3, set.5, dyn.5,
// dyn.20), p = 20 workers, N/l = 100 blocks. Neither the speed
// distribution nor dynamic speed drift should notably affect the
// ranking.
#include "bench/bench_util.hpp"
#include "common/csv.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  args.reject_unread();

  bench::print_header("Figure 8", "outer product across scenarios",
                      "p=" + std::to_string(p) + ", n=" + std::to_string(n) +
                          ", reps=" + std::to_string(reps));

  const std::vector<std::string> strategies{
      "DynamicOuter2Phases", "DynamicOuter", "RandomOuter", "SortedOuter"};

  // CSV with the scenario name as the leading column.
  std::vector<std::string> columns{"scenario"};
  for (const auto& s : strategies) {
    columns.push_back(s + ".mean");
    columns.push_back(s + ".sd");
  }
  columns.push_back("Analysis.mean");
  columns.push_back("Analysis.sd");
  CsvWriter csv(std::cout, columns);

  for (const auto& scenario_name : figure8_scenario_names()) {
    std::vector<std::string> cells{scenario_name};
    Summary analysis;
    for (const auto& name : strategies) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = name;
      config.n = n;
      config.p = p;
      config.scenario = named_scenario(scenario_name);
      config.seed = seed;
      config.reps = reps;
      const ExperimentResult result = run_experiment(config);
      cells.push_back(CsvWriter::format(result.normalized.mean));
      cells.push_back(CsvWriter::format(result.normalized.stddev));
      analysis = result.analysis_ratio;
    }
    cells.push_back(CsvWriter::format(analysis.mean));
    cells.push_back(CsvWriter::format(analysis.stddev));
    csv.row(cells);
  }
  return 0;
}
