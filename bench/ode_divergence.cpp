// Lemmas 1/2 (outer) and 7/8 (matmul) as a checked claim: the max
// |simulated - ODE| unmarked-task fraction of DynamicOuter and
// DynamicMatrix at two sizes each, averaged over 3 reps. The model is
// the large-N limit, so the gap must shrink as N/l grows;
// tools/expectations.json bounds each size and the ratio per kernel.
#include <iostream>
#include <string>
#include <tuple>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "obs/instrument.hpp"
#include "obs/overlay.hpp"

int bench_main(const hetsched::CliArgs& args) {
  args.reject_unread();
  using namespace hetsched;
  constexpr std::uint32_t kReps = 3;
  ExperimentConfig config;
  config.p = 100;
  config.seed = 20140623;
  bench::print_header(
      "ODE divergence",
      "max |sim - ODE| unmarked fraction where the ODE >= " +
          CsvWriter::format(kOdeSupportMin, 2),
      "p=" + std::to_string(config.p) + ", scenario=" + config.scenario.name +
          ", seed=" + std::to_string(config.seed) +
          ", mean over reps=" + std::to_string(kReps));

  // Mean over the reps of the max divergence at size n.
  const auto mean_max = [&](std::uint32_t n) {
    config.n = n;
    InstrumentOptions options;
    options.record_events = false;  // the sampled series is all it reads
    double sum = 0.0;
    for (std::uint32_t r = 0; r < kReps; ++r) {
      InstrumentedRep rep;
      run_instrumented_rep(
          config, derive_stream(config.seed, "rep." + std::to_string(r)),
          options, rep);
      sum += ode_divergence(config.kernel, rep.outcome.speeds, n,
                            rep.sampler.times(),
                            rep.sampler.series("unmarked_fraction"))
                 .max;
    }
    return CsvWriter::format(sum / kReps);
  };

  CsvWriter csv(std::cout, {"kernel", "strategy", "n_small", "n_large",
                            "max_div.small", "max_div.large"});
  for (const auto& [kernel, strategy, small, large] :
       {std::tuple{Kernel::kOuter, "DynamicOuter", 100u, 1000u},
        std::tuple{Kernel::kMatmul, "DynamicMatrix", 40u, 100u}}) {
    config.kernel = kernel;
    config.strategy = strategy;
    csv.row({to_string(kernel), strategy, std::to_string(small),
             std::to_string(large), mean_max(small), mean_max(large)});
  }
  return 0;
}
