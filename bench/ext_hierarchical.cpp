// Extension: two-level rack scheduling. Compares a flat master over
// all workers against the hierarchical composition (static inter-rack
// split + per-rack dynamic scheduling), reporting where the traffic
// moves: the hierarchy pays intra-rack volume comparable to flat but
// needs only ~lower-bound inter-rack volume — the scarce resource on
// real clusters.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "hier/hierarchical.hpp"
#include "platform/lower_bound.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto reps = args.get_count("reps", 5);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto workers_per_rack = args.get_count("workers-per-rack", 8);
  args.reject_unread();

  bench::print_header(
      "Extension (hierarchical)",
      "flat master vs static-inter-rack + dynamic-intra-rack",
      "n=" + std::to_string(n) + ", " + std::to_string(workers_per_rack) +
          " workers/rack, reps=" + std::to_string(reps));

  CsvWriter csv(std::cout,
                {"racks", "total_workers", "flat.normalized",
                 "hier.intra_normalized", "hier.inter_normalized",
                 "hier.rack_imbalance"});

  for (const std::uint32_t n_racks : {2u, 4u, 8u, 16u}) {
    RunningStats flat_norm, intra_norm, inter_norm, imbalance;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng rng(derive_stream(rep_seed, "speeds"));
      UniformIntervalSpeeds model(10.0, 100.0);
      std::vector<Platform> racks;
      std::vector<double> all_speeds;
      for (std::uint32_t q = 0; q < n_racks; ++q) {
        racks.push_back(make_platform(model, workers_per_rack, rng));
        for (const double s : racks.back().speeds()) all_speeds.push_back(s);
      }

      // Flat reference: one master over every worker.
      ExperimentConfig flat;
      flat.kernel = Kernel::kOuter;
      flat.strategy = "DynamicOuter2Phases";
      flat.n = n;
      flat.p = n_racks * workers_per_rack;
      flat.reps = 1;
      flat.seed = rep_seed;
      flat.scenario =
          Scenario{"fixed", std::make_shared<FixedListSpeeds>(all_speeds),
                   PerturbationModel{}};
      flat_norm.push(run_experiment(flat).normalized.mean);

      // Hierarchical run on the same workers.
      HierarchicalConfig config;
      config.n = n;
      config.seed = rep_seed;
      const HierarchicalResult hier = run_hierarchical_outer(racks, config);
      const Platform everyone(all_speeds);
      const double flat_lb =
          outer_lower_bound(n, everyone.relative_speeds());
      intra_norm.push(static_cast<double>(hier.intra_rack_blocks) / flat_lb);
      inter_norm.push(hier.inter_normalized(n));
      imbalance.push(hier.rack_imbalance());
    }
    csv.row(std::vector<double>{
        static_cast<double>(n_racks),
        static_cast<double>(n_racks * workers_per_rack), flat_norm.mean(),
        intra_norm.mean(), inter_norm.mean(), imbalance.mean()});
  }
  std::cout << "# flat.normalized and hier.intra_normalized share the flat "
               "lower bound; hier.inter_normalized uses the rack-level "
               "bound\n";
  return 0;
}
