// Figure 1: comparison of random and data-aware dynamic strategies for
// the outer product, vectors of N/l = 100 blocks, speeds U[10,100].
// Series: normalized communication vs worker count.
#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);
  const auto n = static_cast<std::uint32_t>(args.get_int("n", 100));
  const auto reps = static_cast<std::uint32_t>(args.get_int("reps", 10));
  const std::uint64_t seed = args.get_int("seed", 20140623);
  const auto ps = bench::to_u32(args.get_int_list("p", bench::default_p_grid()));

  bench::print_header(
      "Figure 1", "outer product, data-aware vs random strategies",
      "n=" + std::to_string(n) + " blocks, speeds U[10,100], reps=" +
          std::to_string(reps));

  const auto points = sweep_worker_count(
      Kernel::kOuter, n, ps, paper_default_scenario(),
      {"RandomOuter", "SortedOuter", "DynamicOuter"}, false, seed, reps);
  print_sweep_csv(points, "p", std::cout);
  return 0;
}
