#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "core/experiment.hpp"

namespace hetsched {
namespace {

// Deterministic injectable clock: every read advances time by a fixed
// step, so nested-scope arithmetic has exact expected values and the
// overhead tests can count reads instead of trusting wall time.
// Atomic because the profiled rep loop reads it from worker threads.
std::atomic<std::uint64_t> g_ticks{0};
constexpr std::uint64_t kStep = 1000;
std::uint64_t counting_clock() { return (1 + g_ticks.fetch_add(1)) * kStep; }

class FakeClockGuard {
 public:
  FakeClockGuard() {
    g_ticks = 0;
    set_prof_clock_for_testing(&counting_clock);
  }
  ~FakeClockGuard() { set_prof_clock_for_testing(nullptr); }
};

TEST(ProfSite, NamesAreStable) {
  EXPECT_STREQ(to_string(ProfSite::kStrategyBuild), "strategy.build");
  EXPECT_STREQ(to_string(ProfSite::kStrategyReset), "strategy.reset");
  EXPECT_STREQ(to_string(ProfSite::kEngineRun), "engine.run");
  EXPECT_STREQ(to_string(ProfSite::kAggregate), "aggregate");
  EXPECT_STREQ(to_string(ProfSite::kExport), "export");
  EXPECT_STREQ(to_string(ProfSite::kAnalyze), "analyze");
}

TEST(ProfScope, NullShardReadsNoClock) {
  FakeClockGuard guard;
  {
    ProfScope scope(nullptr, ProfSite::kEngineRun);
  }
  EXPECT_EQ(g_ticks, 0u);
}

TEST(ProfScope, NestedScopesSplitSelfTime) {
  FakeClockGuard guard;
  ProfShard shard;
  {
    // Clock reads (each advances by kStep): outer start = 1*kStep,
    // inner start = 2*kStep, inner end = 3*kStep, outer end = 4*kStep.
    ProfScope outer(&shard, ProfSite::kEngineRun);
    ProfScope inner(&shard, ProfSite::kAggregate);
  }
  const auto& inner = shard.sites[static_cast<std::size_t>(ProfSite::kAggregate)];
  const auto& outer = shard.sites[static_cast<std::size_t>(ProfSite::kEngineRun)];
  EXPECT_EQ(inner.ns, kStep);
  EXPECT_EQ(inner.self_ns, kStep);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_EQ(outer.ns, 3 * kStep);
  EXPECT_EQ(outer.self_ns, 2 * kStep);  // inclusive minus the nested scope
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(shard.depth, 0u);
}

TEST(ProfScope, DepthOverflowFallsBackToInclusiveOnly) {
  FakeClockGuard guard;
  ProfShard shard;
  shard.depth = static_cast<std::uint32_t>(shard.stack.size());  // full
  {
    ProfScope scope(&shard, ProfSite::kExport);
  }
  const auto& site = shard.sites[static_cast<std::size_t>(ProfSite::kExport)];
  EXPECT_EQ(site.calls, 1u);
  EXPECT_EQ(site.ns, kStep);
  EXPECT_EQ(site.self_ns, site.ns);  // no child subtraction available
  EXPECT_EQ(shard.depth, shard.stack.size());
}

TEST(ProfShard, MergeFoldsSiteTotals) {
  ProfShard a, b;
  auto& sa = a.sites[static_cast<std::size_t>(ProfSite::kEngineRun)];
  auto& sb = b.sites[static_cast<std::size_t>(ProfSite::kEngineRun)];
  sa = {100, 80, 2};
  sb = {50, 50, 1};
  a.merge(b);
  EXPECT_EQ(sa.ns, 150u);
  EXPECT_EQ(sa.self_ns, 130u);
  EXPECT_EQ(sa.calls, 3u);
}

TEST(ProfileTotals, AddAccumulatesAndSums) {
  ProfShard shard;
  shard.sites[static_cast<std::size_t>(ProfSite::kEngineRun)] = {100, 90, 4};
  shard.sites[static_cast<std::size_t>(ProfSite::kAggregate)] = {10, 10, 1};
  ProfileTotals totals;
  totals.add(shard);
  totals.add(shard);
  EXPECT_EQ(totals.site(ProfSite::kEngineRun).ns, 200u);
  EXPECT_EQ(totals.site(ProfSite::kEngineRun).calls, 8u);
  EXPECT_EQ(totals.total_self_ns(), 200u);
}

TEST(ProfileJson, SkipsUncalledSitesAndNamesKeys) {
  ProfileTotals totals;
  totals.sites[static_cast<std::size_t>(ProfSite::kEngineRun)] = {123, 100, 7};
  std::ostringstream out;
  JsonWriter json(out, /*pretty=*/false);
  write_profile_json(json, totals);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"engine.run\":{\"ns\":123,\"self_ns\":100,\"calls\":7}"),
            std::string::npos);
  EXPECT_EQ(text.find("strategy.build"), std::string::npos);  // calls == 0
}

ExperimentConfig figure_protocol_config() {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter2Phases";
  config.n = 100;
  config.p = 20;
  config.reps = 4;
  config.seed = 42;
  return config;
}

TEST(RunExperimentProfile, DisabledByDefault) {
  ExperimentConfig config = figure_protocol_config();
  config.n = 20;
  config.p = 4;
  const ExperimentResult result = run_experiment(config);
  EXPECT_FALSE(result.profile.enabled);
  EXPECT_EQ(result.profile.site(ProfSite::kEngineRun).calls, 0u);
}

TEST(RunExperimentProfile, CountsOneEngineRunPerRep) {
  ExperimentConfig config = figure_protocol_config();
  config.n = 20;
  config.p = 4;
  config.reps = 6;
  config.profile = true;
  const ExperimentResult result = run_experiment(config);
  ASSERT_TRUE(result.profile.enabled);
  EXPECT_EQ(result.profile.site(ProfSite::kEngineRun).calls, config.reps);
  // Every rep either rewinds or rebuilds its strategy.
  EXPECT_EQ(result.profile.site(ProfSite::kStrategyBuild).calls +
                result.profile.site(ProfSite::kStrategyReset).calls,
            config.reps);
  EXPECT_EQ(result.profile.site(ProfSite::kAggregate).calls, 1u);
  EXPECT_GT(result.profile.site(ProfSite::kEngineRun).ns, 0u);
  EXPECT_GE(result.profile.site(ProfSite::kEngineRun).ns,
            result.profile.site(ProfSite::kEngineRun).self_ns);
}

// The < 1% overhead gate, structural half: with a counting clock the
// profiler's cost per repetition is pinned to O(1) clock reads — the
// sites wrap whole engine runs, never individual requests, so the read
// count cannot scale with n or p.
TEST(RunExperimentProfile, CountingClockPinsReadsPerRep) {
  ExperimentConfig config = figure_protocol_config();
  config.reps = 8;
  config.profile = true;
  FakeClockGuard guard;
  run_experiment(config);
  // Per rep: reset scope (2 reads) + optional build scope (2) +
  // engine.run (2); plus one aggregate scope (2) at the end.
  const std::uint64_t reads = g_ticks;
  EXPECT_LE(reads, 6u * config.reps + 2u);
  EXPECT_GE(reads, 4u * config.reps + 2u);
}

// The < 1% overhead gate, wall-clock half: reads-per-rep (pinned above)
// times the measured cost of one clock read must be under 1% of one
// unprofiled repetition of the figure protocol. Both measurements are
// generous to the profiler's disadvantage.
TEST(RunExperimentProfile, OverheadUnderOnePercentOfFigureProtocol) {
  // Cost of one clock read, amortized over a batch.
  constexpr int kReads = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int i = 0; i < kReads; ++i) sink += prof_default_clock();
  const auto t1 = std::chrono::steady_clock::now();
  ASSERT_NE(sink, 0u);
  const double read_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kReads;

  // Cost of one unprofiled repetition.
  ExperimentConfig config = figure_protocol_config();
  const ExperimentResult result = run_experiment(config);
  const double rep_ns =
      result.wall_time_sec * 1e9 / static_cast<double>(config.reps);
  ASSERT_GT(rep_ns, 0.0);

  // 6 profiler reads + 1 progress read per rep (see progress_test.cpp).
  const double overhead = 7.0 * read_ns / rep_ns;
  EXPECT_LT(overhead, 0.01) << "read_ns=" << read_ns << " rep_ns=" << rep_ns;
}

// Shard-order merging makes the profile's *shape* independent of the
// thread count: call counts must match exactly between parallelism 1
// and 4 (the ns values are wall-clock and naturally differ).
TEST(RunExperimentProfile, CallCountsIndependentOfParallelism) {
  ExperimentConfig config = figure_protocol_config();
  config.n = 20;
  config.p = 4;
  config.reps = 8;
  config.profile = true;
  config.parallelism = 1;
  const ExperimentResult serial = run_experiment(config);
  config.parallelism = 4;
  const ExperimentResult parallel = run_experiment(config);
  for (std::size_t s = 0; s < kNumProfSites; ++s) {
    EXPECT_EQ(serial.profile.sites[s].calls, parallel.profile.sites[s].calls)
        << to_string(static_cast<ProfSite>(s));
  }
}

}  // namespace
}  // namespace hetsched
