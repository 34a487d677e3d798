// Pins the rep-context reuse contract: a strategy rewound with
// Strategy::reset(seed) must behave bit-identically to a freshly
// constructed one, and run_experiment (which reuses one strategy per
// shard) must produce bit-identical results for every thread count —
// on both the flat and the comm-timed engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "sim/strategy.hpp"

namespace hetsched {
namespace {

std::unique_ptr<Strategy> make_named(const std::string& name,
                                     std::uint64_t seed) {
  constexpr std::uint32_t kN = 12;
  constexpr std::uint32_t kWorkers = 3;
  if (name.find("Outer") != std::string::npos) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.2;
    return make_outer_strategy(name, OuterConfig{kN}, kWorkers, seed, options);
  }
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.2;
  return make_matmul_strategy(name, MatmulConfig{kN}, kWorkers, seed, options);
}

/// Drains `s` completely through the scratch API, round-robin over the
/// workers, recording every assignment verbatim.
std::vector<Assignment> drain(Strategy& s) {
  std::vector<Assignment> log;
  Assignment scratch;
  std::uint32_t retired = 0;
  std::uint32_t w = 0;
  std::vector<bool> alive(s.workers(), true);
  while (retired < s.workers()) {
    if (alive[w]) {
      if (s.on_request(w, scratch)) {
        log.push_back(scratch);
      } else {
        alive[w] = false;
        ++retired;
      }
    }
    w = (w + 1) % s.workers();
  }
  return log;
}

const char* kPaperStrategies[] = {
    "RandomOuter",  "SortedOuter",  "DynamicOuter",  "DynamicOuter2Phases",
    "RandomMatrix", "SortedMatrix", "DynamicMatrix", "DynamicMatrix2Phases",
};

TEST(ResetReuse, PaperStrategiesSupportReset) {
  for (const char* name : kPaperStrategies) {
    auto s = make_named(name, 1);
    EXPECT_TRUE(s->reset(2)) << name;
  }
}

TEST(ResetReuse, ResetMatchesFreshConstructionBitForBit) {
  constexpr std::uint64_t kSeedA = 1111;
  constexpr std::uint64_t kSeedB = 2222;
  for (const char* name : kPaperStrategies) {
    SCOPED_TRACE(name);
    // Dirty the reused instance with a full drain under a different
    // seed, then rewind it to kSeedB.
    auto reused = make_named(name, kSeedA);
    drain(*reused);
    ASSERT_TRUE(reused->reset(kSeedB));

    auto fresh = make_named(name, kSeedB);
    const std::vector<Assignment> got = drain(*reused);
    const std::vector<Assignment> want = drain(*fresh);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tasks, want[i].tasks) << "assignment " << i;
      EXPECT_EQ(got[i].blocks, want[i].blocks) << "assignment " << i;
    }
  }
}

TEST(ResetReuse, ResetIsIdempotentAcrossManyCycles) {
  auto reference = make_named("DynamicOuter2Phases", 77);
  const std::vector<Assignment> want = drain(*reference);
  auto reused = make_named("DynamicOuter2Phases", 1);
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_TRUE(reused->reset(77));
    const std::vector<Assignment> got = drain(*reused);
    ASSERT_EQ(got.size(), want.size()) << "cycle " << cycle;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].tasks, want[i].tasks);
      ASSERT_EQ(got[i].blocks, want[i].blocks);
    }
  }
}

void expect_identical_results(const ExperimentResult& a,
                              const ExperimentResult& b) {
  EXPECT_EQ(a.normalized.mean, b.normalized.mean);
  EXPECT_EQ(a.normalized.stddev, b.normalized.stddev);
  EXPECT_EQ(a.makespan.mean, b.makespan.mean);
  EXPECT_EQ(a.finish_spread.mean, b.finish_spread.mean);
  ASSERT_EQ(a.reps.size(), b.reps.size());
  for (std::size_t r = 0; r < a.reps.size(); ++r) {
    EXPECT_EQ(a.reps[r].sim.makespan, b.reps[r].sim.makespan) << "rep " << r;
    EXPECT_EQ(a.reps[r].sim.total_blocks, b.reps[r].sim.total_blocks)
        << "rep " << r;
    EXPECT_EQ(a.reps[r].normalized, b.reps[r].normalized) << "rep " << r;
  }
}

ExperimentConfig reuse_config(bool timed, std::uint32_t parallelism) {
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix2Phases";
  config.n = 8;
  config.p = 4;
  config.reps = 12;  // several reps per shard => reuse actually kicks in
  config.seed = 99;
  config.timed = timed;
  config.parallelism = parallelism;
  return config;
}

TEST(ResetReuse, RunExperimentReusedContextMatchesFreshPerRep) {
  // run_experiment reuses one strategy per shard; running every rep
  // through a fresh run_single (no context) must give identical bits.
  const ExperimentConfig config = reuse_config(/*timed=*/false, 1);
  const ExperimentResult reused = run_experiment(config);
  for (std::uint32_t r = 0; r < config.reps; ++r) {
    const std::uint64_t rep_seed =
        derive_stream(config.seed, "rep." + std::to_string(r));
    const RepOutcome fresh = run_single(config, rep_seed);
    EXPECT_EQ(reused.reps[r].sim.makespan, fresh.sim.makespan) << "rep " << r;
    EXPECT_EQ(reused.reps[r].sim.total_blocks,
              fresh.sim.total_blocks)
        << "rep " << r;
    EXPECT_EQ(reused.reps[r].normalized, fresh.normalized) << "rep " << r;
  }
}

TEST(ResetReuse, FlatEngineIdenticalAcrossThreadCounts) {
  const ExperimentResult serial = run_experiment(reuse_config(false, 1));
  const ExperimentResult two = run_experiment(reuse_config(false, 2));
  const ExperimentResult four = run_experiment(reuse_config(false, 4));
  expect_identical_results(serial, two);
  expect_identical_results(serial, four);
}

TEST(ResetReuse, TimedEngineIdenticalAcrossThreadCounts) {
  const ExperimentResult serial = run_experiment(reuse_config(true, 1));
  const ExperimentResult four = run_experiment(reuse_config(true, 4));
  expect_identical_results(serial, four);
}

TEST(ResetReuse, OuterKernelIdenticalAcrossThreadCounts) {
  ExperimentConfig config = reuse_config(false, 1);
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 16;
  const ExperimentResult serial = run_experiment(config);
  config.parallelism = 3;
  const ExperimentResult three = run_experiment(config);
  expect_identical_results(serial, three);
}

TEST(ResetReuse, VariantStrategiesFallBackToReconstruction) {
  // Strategies without reset support must report false (the rep loop
  // then rebuilds them) — never silently half-reset.
  auto adaptive = make_named("AdaptiveOuter", 5);
  EXPECT_FALSE(adaptive->reset(6));
  auto stealing = make_named("WorkStealingMatmul", 5);
  EXPECT_FALSE(stealing->reset(6));
  // And run_experiment still works for them (fallback path).
  ExperimentConfig config = reuse_config(false, 1);
  config.kernel = Kernel::kOuter;
  config.strategy = "AdaptiveOuter";
  config.n = 8;
  config.reps = 6;
  const ExperimentResult a = run_experiment(config);
  const ExperimentResult b = run_experiment(config);
  expect_identical_results(a, b);
}

}  // namespace
}  // namespace hetsched
