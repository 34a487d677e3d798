// Extension: validating the paper's overlap assumption.
//
// The analysis assumes communication is fully hidden by prefetching "a
// few blocks in advance" (Section 3.1, citing Kreaseck et al. and
// Parashar & Hariri for the observation that the required depth is
// small). This bench makes the claim quantitative: it runs
// DynamicOuter2Phases over a timed link (serial master uplink) and
// sweeps the prefetch lookahead and the link bandwidth, reporting the
// starvation fraction and the makespan inflation relative to the free
// link.
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto p = static_cast<std::uint32_t>(args.get_int("p", 20));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
  const std::uint64_t seed = args.get_int("seed", 20140623);

  bench::print_header(
      "Extension (overlap)", "prefetch lookahead needed to hide communication",
      "DynamicOuter2Phases, n=" + std::to_string(n) + ", p=" +
          std::to_string(p) + ", serial master uplink, reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout, {"bandwidth", "lookahead", "makespan_inflation",
                            "starvation_fraction"});

  OuterStrategyOptions options;
  options.phase2_fraction = 0.012;  // ~ e^{-4.4}

  for (const double relative_bw : {2.0, 4.0, 8.0, 32.0}) {
    for (const std::uint32_t lookahead : {1u, 2u, 4u, 8u, 16u}) {
      double inflation_sum = 0.0;
      double starvation_sum = 0.0;
      for (std::uint32_t r = 0; r < reps; ++r) {
        const std::uint64_t rep_seed =
            derive_stream(seed, "rep." + std::to_string(r));
        Rng speed_rng(derive_stream(rep_seed, "speeds"));
        const Platform platform =
            make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);

        auto untimed_strategy = make_outer_strategy(
            "DynamicOuter2Phases", OuterConfig{n}, p, rep_seed, options);
        const SimResult untimed = simulate(*untimed_strategy, platform);

        auto timed_strategy = make_outer_strategy(
            "DynamicOuter2Phases", OuterConfig{n}, p, rep_seed, options);
        SimConfig config;
        // Bandwidth scaled to the platform: relative_bw = 1 means the
        // link ships exactly as many blocks per unit time as the whole
        // platform computes tasks.
        config.comm = CommModel{relative_bw * platform.total_speed(), 0.0};
        config.lookahead = lookahead;
        const SimResult timed = simulate(*timed_strategy, platform, config);

        inflation_sum += timed.makespan / untimed.makespan;
        starvation_sum += timed.starvation_fraction();
      }
      csv.row(std::vector<double>{relative_bw, static_cast<double>(lookahead),
                                  inflation_sum / reps,
                                  starvation_sum / reps});
    }
  }
  std::cout << "# inflation ~1.0 at small lookahead confirms the paper's "
               "free-communication assumption\n";
  return 0;
}
