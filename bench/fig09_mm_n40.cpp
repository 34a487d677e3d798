// Figure 9: all matrix-multiplication strategies plus the analysis
// curve, matrices of N/l = 40 blocks (64,000 tasks).
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 40));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 5));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", bench::default_p_grid()));

  bench::print_header("Figure 9",
                      "matrix multiplication, all strategies + analysis",
                      "n=" + std::to_string(n) + " blocks (" +
                          std::to_string(static_cast<std::uint64_t>(n) * n * n) +
                          " tasks), reps=" + std::to_string(reps));

  const auto points = sweep_worker_count(
      Kernel::kMatmul, n, ps, paper_default_scenario(),
      {"DynamicMatrix2Phases", "DynamicMatrix", "RandomMatrix", "SortedMatrix"},
      true, seed, reps);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
