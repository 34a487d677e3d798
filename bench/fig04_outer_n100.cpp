// Figure 4: all outer-product strategies plus the analysis curve,
// vectors of N/l = 100 blocks ((N/l)^2 = 10,000 tasks).
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", bench::default_p_grid()));

  bench::print_header("Figure 4",
                      "outer product, all strategies + analysis",
                      "n=" + std::to_string(n) +
                          " blocks, speeds U[10,100], beta from homogeneous "
                          "analysis, reps=" +
                          std::to_string(reps));

  const auto points = sweep_worker_count(
      Kernel::kOuter, n, ps, paper_default_scenario(),
      {"DynamicOuter2Phases", "DynamicOuter", "RandomOuter", "SortedOuter"},
      true, seed, reps);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
