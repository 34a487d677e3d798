// compile_spec: defaults, merge precedence, grid expansion order and
// labels, and the per-entry scenario freshness the campaign runner
// depends on.
#include "spec/compile.hpp"

#include <cmath>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "spec/overlay.hpp"

namespace hetsched {
namespace {

ScenarioSpec resolved(ScenarioSpec spec, const SpecDefaults& defaults) {
  return resolve_spec(std::move(spec), defaults);
}

TEST(SpecCompile, RunDefaultsMatchLegacyCmdRun) {
  const CompiledCampaign compiled =
      compile_spec(resolved(ScenarioSpec{}, run_spec_defaults()));
  ASSERT_EQ(compiled.entries.size(), 1u);
  const ExperimentConfig& c = compiled.entries.front().config;
  EXPECT_EQ(c.kernel, Kernel::kOuter);
  EXPECT_EQ(c.strategy, "DynamicOuter2Phases");
  EXPECT_EQ(c.n, 100u);
  EXPECT_EQ(c.p, 20u);
  EXPECT_EQ(c.scenario.name, "default");
  EXPECT_FALSE(c.phase2_fraction.has_value());
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.reps, 10u);
  EXPECT_FALSE(c.timed);
  EXPECT_TRUE(c.faults.empty());
  EXPECT_NE(c.config_hash, 0u);
  EXPECT_EQ(compiled.entries.front().label, "DynamicOuter2Phases.p20");
}

TEST(SpecCompile, BatchDefaultsMatchLegacyCmdCampaign) {
  const CompiledCampaign compiled =
      compile_spec(resolved(ScenarioSpec{}, batch_spec_defaults()));
  EXPECT_EQ(compiled.name, "cli");
  // Legacy expansion: for p { for strategy } with the paper trio.
  const std::vector<std::string> expected{
      "RandomOuter.p10",  "DynamicOuter.p10",  "DynamicOuter2Phases.p10",
      "RandomOuter.p50",  "DynamicOuter.p50",  "DynamicOuter2Phases.p50",
      "RandomOuter.p100", "DynamicOuter.p100", "DynamicOuter2Phases.p100"};
  ASSERT_EQ(compiled.entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(compiled.entries[i].label, expected[i]);
    EXPECT_EQ(compiled.entries[i].config.reps, 5u);
  }
}

TEST(SpecCompile, MatmulDefaultsFollowTheKernel) {
  ScenarioSpec spec;
  spec.kernel = Kernel::kMatmul;
  const CompiledCampaign compiled =
      compile_spec(resolved(std::move(spec), run_spec_defaults()));
  ASSERT_EQ(compiled.entries.size(), 1u);
  EXPECT_EQ(compiled.entries.front().config.strategy, "DynamicMatrix2Phases");
  EXPECT_EQ(compiled.entries.front().config.n, 40u);
}

TEST(SpecCompile, WideGridExpansionOrderAndLabels) {
  ScenarioSpec spec;
  spec.strategies = {"RandomOuter", "DynamicOuter"};
  spec.ns = {50, 100};
  spec.ps = {4, 8};
  spec.phase2s = {0.5, 0.25};
  const CompiledCampaign compiled =
      compile_spec(resolved(std::move(spec), batch_spec_defaults()));
  // n (outer) -> p -> strategy; multi-valued extra axes are tagged onto
  // the label. Neither strategy reads phase2, so that axis adds no
  // entries and no `.ph` tag.
  ASSERT_EQ(compiled.entries.size(), 8u);
  EXPECT_EQ(compiled.entries[0].label, "RandomOuter.p4.n50");
  EXPECT_EQ(compiled.entries[1].label, "DynamicOuter.p4.n50");
  EXPECT_EQ(compiled.entries[2].label, "RandomOuter.p8.n50");
  EXPECT_EQ(compiled.entries[7].label, "DynamicOuter.p8.n100");
  EXPECT_EQ(compiled.entries[0].config.n, 50u);
  EXPECT_EQ(compiled.entries[0].config.p, 4u);
  EXPECT_FALSE(compiled.entries[0].config.phase2_fraction.has_value());
  EXPECT_EQ(compiled.entries[7].config.n, 100u);
  EXPECT_EQ(compiled.entries[7].config.p, 8u);
  EXPECT_FALSE(compiled.entries[7].config.phase2_fraction.has_value());
  // Distinct grid points hash differently.
  EXPECT_NE(compiled.entries[0].config.config_hash,
            compiled.entries[7].config.config_hash);
}

// Figure 2's shape: the 2-phase strategy crossed with phase2 values
// next to three references that ignore phase2.
ScenarioSpec phase2_grid(std::vector<double> phase2s) {
  ScenarioSpec spec;
  spec.strategies = {"DynamicOuter2Phases", "RandomOuter", "SortedOuter",
                     "DynamicOuter"};
  spec.ns = {100};
  spec.ps = {20};
  spec.phase2s = std::move(phase2s);
  return resolved(std::move(spec), batch_spec_defaults());
}

TEST(SpecCompile, PhaseTwoAxisExpandsOnlyTheTwoPhaseStrategies) {
  // Figure 2's 15 fractions f in phase 1, as phase2 = 1 - f.
  std::vector<double> phase2s;
  for (const double f : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                         0.95, 0.97, 0.985, 0.995, 0.999}) {
    phase2s.push_back(1.0 - f);
  }
  const CompiledCampaign compiled = compile_spec(phase2_grid(phase2s));
  ASSERT_EQ(compiled.entries.size(), 15u + 3u);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(compiled.entries[i].config.strategy, "DynamicOuter2Phases");
    EXPECT_EQ(compiled.entries[i].config.phase2_fraction, phase2s[i]);
  }
  EXPECT_EQ(compiled.entries[0].label, "DynamicOuter2Phases.p20.ph1");
  EXPECT_EQ(compiled.entries[1].label, "DynamicOuter2Phases.p20.ph0.9");
  const std::vector<std::string> references{"RandomOuter.p20",
                                            "SortedOuter.p20",
                                            "DynamicOuter.p20"};
  for (std::size_t i = 0; i < references.size(); ++i) {
    const CampaignEntry& entry = compiled.entries[15 + i];
    EXPECT_EQ(entry.label, references[i]);
    EXPECT_FALSE(entry.config.phase2_fraction.has_value());
  }
}

TEST(SpecCompile, ReferenceEntryHashesAsItsPointWithoutPhaseTwo) {
  // Each hash names one experiment: a reference strategy's entry is the
  // same point whatever the phase2 axis holds, or without one.
  const CompiledCampaign with_axis =
      compile_spec(phase2_grid({1.0, 0.5, 0.25}));
  const CompiledCampaign without_axis = compile_spec(phase2_grid({}));
  ASSERT_EQ(with_axis.entries.size(), 6u);
  ASSERT_EQ(without_axis.entries.size(), 4u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(with_axis.entries[2 + i].label, without_axis.entries[i].label);
    EXPECT_EQ(with_axis.entries[2 + i].config.config_hash,
              without_axis.entries[i].config.config_hash)
        << without_axis.entries[i].label;
  }
  // The 2-phase strategy's points still differ by phase2.
  EXPECT_NE(with_axis.entries[0].config.config_hash,
            without_axis.entries[0].config.config_hash);
}

TEST(SpecCompile, EntriesGetFreshScenarioInstances) {
  ScenarioSpec spec;
  SpeedSpec list;
  list.kind = SpeedSpec::Kind::kList;
  list.values = {10.0, 20.0};
  spec.platform = list;
  spec.ps = {2, 4};
  spec.strategies = {"DynamicOuter"};
  const CompiledCampaign compiled =
      compile_spec(resolved(std::move(spec), batch_spec_defaults()));
  ASSERT_EQ(compiled.entries.size(), 2u);
  // FixedListSpeeds carries a mutable replay cursor: shared instances
  // would interleave their draws across entries.
  EXPECT_NE(compiled.entries[0].config.scenario.speeds.get(),
            compiled.entries[1].config.scenario.speeds.get());
  Rng rng(1);
  EXPECT_EQ(compiled.entries[0].config.scenario.speeds->draw(rng), 10.0);
  EXPECT_EQ(compiled.entries[1].config.scenario.speeds->draw(rng), 10.0);
}

TEST(SpecCompile, CompileValidates) {
  ScenarioSpec spec;
  spec.strategies = {"NoSuchStrategy"};
  EXPECT_THROW(compile_spec(resolved(std::move(spec), batch_spec_defaults())),
               SpecError);
  // Unresolved specs are rejected outright.
  EXPECT_THROW(compile_spec(ScenarioSpec{}), SpecError);
}

TEST(SpecCompile, MergePrecedence) {
  ScenarioSpec base;
  base.name = "base";
  base.ps = {10};
  base.seed = 7;
  ScenarioSpec overlay;
  overlay.ps = {20};
  overlay.reps = 3;
  const ScenarioSpec merged = merge_specs(base, overlay);
  EXPECT_EQ(merged.name, "base");        // untouched by the overlay
  EXPECT_EQ(merged.ps, (std::vector<std::uint32_t>{20}));  // overlay wins
  EXPECT_EQ(merged.seed, 7u);
  EXPECT_EQ(merged.reps, 3u);
}

// The CLI overlay: only flags that are present produce set fields, and
// the values land where the legacy flag parsing put them.
TEST(SpecCompile, CliOverlayMapsFlags) {
  const char* argv[] = {"prog",
                        "--kernel=matmul",
                        "--strategy=RandomMatrix",
                        "--n=30",
                        "--p=5,10",
                        "--beta=1.5",
                        "--scenario=set.3",
                        "--reps=2",
                        "--seed=99",
                        "--timed",
                        "--bandwidth=50",
                        "--latency=0.5",
                        "--lookahead=6",
                        "--faults=1:0:0.5",
                        "--name=trial"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  const ScenarioSpec spec = spec_overlay_from_cli(args);
  EXPECT_EQ(spec.name, "trial");
  EXPECT_EQ(spec.kernel, Kernel::kMatmul);
  EXPECT_EQ(spec.strategies, (std::vector<std::string>{"RandomMatrix"}));
  EXPECT_EQ(spec.ns, (std::vector<std::uint32_t>{30}));
  EXPECT_EQ(spec.ps, (std::vector<std::uint32_t>{5, 10}));
  ASSERT_EQ(spec.phase2s.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.phase2s[0], std::exp(-1.5));
  ASSERT_TRUE(spec.platform.has_value());
  EXPECT_EQ(spec.platform->preset, "set.3");
  EXPECT_EQ(spec.reps, 2u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.timed, true);
  EXPECT_EQ(spec.bandwidth, 50.0);
  EXPECT_EQ(spec.latency, 0.5);
  EXPECT_EQ(spec.lookahead, 6u);
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0], (FaultSpec{1.0, 0, 0.5}));
}

TEST(SpecCompile, CliOverlayEmptyWhenNoFlags) {
  const char* argv[] = {"prog", "--json", "--profile"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(spec_overlay_from_cli(args), ScenarioSpec{});
}

TEST(SpecCompile, CliOverlayRejectsBadValues) {
  const auto reject = [](std::initializer_list<const char*> flags) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), flags.begin(), flags.end());
    const CliArgs args(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW(spec_overlay_from_cli(args), SpecError);
  };
  reject({"--n=ten"});
  reject({"--p="});
  reject({"--beta=-1"});
  reject({"--beta=1", "--phase2=0.5"});
  reject({"--strategy=A", "--strategies=A,B"});
  reject({"--seed=-3"});
  reject({"--faults=1:2:0.5x"});
  reject({"--faults=inf:0:0"});
  reject({"--beta=inf"});
}

}  // namespace
}  // namespace hetsched
