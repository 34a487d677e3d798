// Replication-engine scaling: times run_experiment with a serial rep
// loop against the parallel engine at increasing thread counts and
// checks the summaries stay bit-identical: the exit status is 1 when
// any row's bit_identical is 0. The speedup column is reported, not
// checked; no bound on it is claimed.
#include <chrono>
#include <iostream>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "runtime/thread_pool.hpp"

namespace {

double time_once(hetsched::ExperimentConfig config, std::uint32_t parallelism,
                 hetsched::ExperimentResult& result) {
  config.parallelism = parallelism;
  const auto start = std::chrono::steady_clock::now();
  result = hetsched::run_experiment(config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetsched;
  const CliArgs args(argc, argv);

  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = args.get("strategy", "DynamicOuter2Phases");
  config.n = static_cast<std::uint32_t>(args.get_int("n", 100));
  config.p = static_cast<std::uint32_t>(args.get_int("p", 100));
  config.reps = static_cast<std::uint32_t>(args.get_int("reps", 32));
  config.seed = args.get_int("seed", 42);

  const std::uint32_t hw = parallel_budget_capacity();
  const auto max_threads = static_cast<std::uint32_t>(
      args.get_int("maxthreads", hw));  // force a sweep past detected cores
  bench::print_header(
      "micro_rep_parallel", "replication-engine scaling",
      "strategy=" + config.strategy + " n=" + std::to_string(config.n) +
          " p=" + std::to_string(config.p) +
          " reps=" + std::to_string(config.reps) +
          " hardware_threads=" + std::to_string(hw) +
          " maxthreads=" + std::to_string(max_threads));
  std::cout << "threads,wall_time_sec,reps_per_sec,speedup,bit_identical\n";

  ExperimentResult serial;
  const double serial_time = time_once(config, 1, serial);
  std::cout << "1," << serial_time << "," << config.reps / serial_time
            << ",1,1\n";

  bool all_identical = true;
  auto run_at = [&](std::uint32_t threads) {
    ExperimentResult parallel;
    const double t = time_once(config, threads, parallel);
    const bool identical =
        parallel.normalized.mean == serial.normalized.mean &&
        parallel.normalized.stddev == serial.normalized.stddev &&
        parallel.makespan.mean == serial.makespan.mean &&
        parallel.makespan.stddev == serial.makespan.stddev;
    std::cout << threads << "," << t << "," << config.reps / t << ","
              << serial_time / t << "," << (identical ? 1 : 0) << "\n";
    all_identical = all_identical && identical;
  };
  for (std::uint32_t threads = 2; threads < max_threads; threads *= 2) {
    run_at(threads);
  }
  if (max_threads >= 2) run_at(max_threads);
  return all_identical ? 0 : 1;
}
