// Extension: fault tolerance. The paper motivates dynamic schedulers
// with MapReduce-style resilience ("on-line detection of nodes that
// perform poorly... re-assign tasks"). This bench injects crashes and
// stragglers into DynamicOuter2Phases runs and measures the price:
// extra communication from lost caches and makespan inflation versus
// the fault-free run with the same seeds. With --timed the same fault
// scripts run over a comm-timed link (bandwidth 100, lookahead 4), where
// a crash additionally forfeits the victim's in-transit prefetches.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "outer/outer_factory.hpp"
#include "platform/lower_bound.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto n = args.get_count("n", 100);
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const bool timed = args.get_bool("timed", false);
  args.reject_unread();

  bench::print_header(
      "Extension (faults)", "crashes and stragglers under demand-driven "
                            "scheduling",
      std::string("DynamicOuter2Phases, n=") + std::to_string(n) + ", p=" +
          std::to_string(p) + ", faults at 30% of the fault-free makespan, "
          "reps=" + std::to_string(reps) +
          (timed ? ", comm-timed engine" : ""));

  CsvWriter csv(std::cout,
                {"crashes", "volume_inflation", "makespan_inflation",
                 "requeued_tasks"});

  OuterStrategyOptions options;
  options.phase2_fraction = 0.012;

  for (const std::uint32_t crashes : {0u, 1u, 2u, 4u, 8u}) {
    RunningStats volume_infl, makespan_infl, requeued;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);

      auto run = [&](const std::vector<WorkerFault>& faults) {
        auto strategy = make_outer_strategy("DynamicOuter2Phases",
                                            OuterConfig{n}, p, rep_seed,
                                            options);
        SimConfig config;
        config.seed = rep_seed;
        if (timed) {
          config.comm = CommModel{};
          config.lookahead = 4;
        }
        config.faults = faults;
        return simulate(*strategy, platform, config);
      };

      const SimResult baseline = run({});
      // Crash the first `crashes` workers at 30% of the clean makespan.
      std::vector<WorkerFault> faults;
      for (std::uint32_t c = 0; c < crashes; ++c) {
        faults.push_back(WorkerFault{0.3 * baseline.makespan, c, 0.0});
      }
      const SimResult result = run(faults);

      volume_infl.push(static_cast<double>(result.total_blocks) /
                       static_cast<double>(baseline.total_blocks));
      makespan_infl.push(result.makespan / baseline.makespan);
      requeued.push(static_cast<double>(result.requeued_tasks));
    }
    csv.row(std::vector<double>{static_cast<double>(crashes),
                                volume_infl.mean(), makespan_infl.mean(),
                                requeued.mean()});
  }
  std::cout << "# crashes at 30% progress; inflation relative to the "
               "fault-free run with identical seeds\n";
  return 0;
}
