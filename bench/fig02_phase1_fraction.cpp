// Figure 2: communication of DynamicOuter2Phases as a function of the
// percentage of tasks treated in phase 1, for one fixed speed draw with
// p = 20 workers and N/l = 100 blocks. Flat series for the other
// strategies are shown for reference.
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto p = static_cast<std::uint32_t>(args.get_int("p", 20));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);

  bench::print_header("Figure 2",
                      "DynamicOuter2Phases vs fraction of tasks in phase 1",
                      "n=" + std::to_string(n) + ", p=" + std::to_string(p) +
                          ", one fixed speed draw, reps=" +
                          std::to_string(reps));

  std::vector<double> fractions;
  for (double f = 0.0; f <= 0.90001; f += 0.1) fractions.push_back(f);
  for (const double f : {0.95, 0.97, 0.985, 0.995, 0.999}) {
    fractions.push_back(f);
  }

  const auto points = sweep_phase1_fraction(Kernel::kOuter, n, p, fractions,
                                            paper_default_scenario(), seed,
                                            reps);
  print_sweep_csv(points, "phase1_fraction", std::cout);
  return 0;
}
