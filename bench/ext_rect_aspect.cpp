// Extension: rectangular outer products. Fixes the domain area at
// 100x100 blocks-equivalent and sweeps the aspect ratio, showing (a)
// the geometric (R+C)/(2 sqrt(RC)) penalty predicted by the generalized
// analysis and (b) that the proportional-acquisition DynamicRect2Phases
// still tracks its analysis on non-square domains.
#include <cmath>
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "platform/platform.hpp"
#include "rect/rect_analysis.hpp"
#include "rect/rect_strategies.hpp"
#include "sim/engine.hpp"

int bench_main(const hetsched::CliArgs& args) {
  using namespace hetsched;
  const auto p = args.get_count("p", 20);
  const auto reps = args.get_count("reps", 10);
  const std::uint64_t seed = args.get_int("seed", 20140623);
  args.reject_unread();

  bench::print_header(
      "Extension (rectangular)", "aspect-ratio sweep at fixed area",
      "area = 10000 block-tasks, p=" + std::to_string(p) + ", reps=" +
          std::to_string(reps));

  CsvWriter csv(std::cout,
                {"rows", "cols", "aspect_penalty", "beta", "analysis",
                 "Dynamic2P.mean", "Dynamic2P.sd", "Random.mean"});

  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {100, 100}, {50, 200}, {25, 400}, {20, 500}, {10, 1000}};

  for (const auto& [rows, cols] : shapes) {
    const RectConfig config{rows, cols};
    RunningStats dynamic_stats, random_stats, analysis_stats;
    double beta = 0.0;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
      RectAnalysis analysis(platform.relative_speeds(), config);
      beta = analysis.optimal_beta().x;
      analysis_stats.push(analysis.ratio(beta));

      auto dynamic = make_rect_strategy("DynamicRect2Phases", config, p,
                                        rep_seed, std::exp(-beta));
      dynamic_stats.push(
          static_cast<double>(simulate(*dynamic, platform).total_blocks) /
          analysis.lower_bound());

      auto random = make_rect_strategy("RandomRect", config, p, rep_seed);
      random_stats.push(
          static_cast<double>(simulate(*random, platform).total_blocks) /
          analysis.lower_bound());
    }
    csv.row(std::vector<double>{
        static_cast<double>(rows), static_cast<double>(cols),
        rect_aspect_penalty(config), beta, analysis_stats.mean(),
        dynamic_stats.mean(), dynamic_stats.stddev(), random_stats.mean()});
  }
  std::cout << "# normalized by LB = 2 sqrt(RC) sum sqrt(rs); the analysis "
               "carries the (R+C)/(2 sqrt(RC)) phase-1 penalty\n";
  return 0;
}
