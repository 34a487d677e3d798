// Pins the refactor's core promise: flag-driven invocations that now
// compile through the spec layer produce exactly the configs (and
// byte-identical report JSON) the CLI used to build by hand.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "spec/compile.hpp"
#include "spec/overlay.hpp"
#include "spec/parse.hpp"

namespace hetsched {
namespace {

// Field-wise config equality (ExperimentConfig has no operator==; the
// scenario is compared by name, which encodes the preset or the inline
// kind, its parameters and its drift).
void expect_config_eq(const ExperimentConfig& a, const ExperimentConfig& b) {
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.p, b.p);
  EXPECT_EQ(a.scenario.name, b.scenario.name);
  EXPECT_EQ(a.phase2_fraction, b.phase2_fraction);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.timed, b.timed);
  EXPECT_EQ(a.comm.bandwidth, b.comm.bandwidth);
  EXPECT_EQ(a.comm.latency, b.comm.latency);
  EXPECT_EQ(a.lookahead, b.lookahead);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].time, b.faults[i].time);
    EXPECT_EQ(a.faults[i].worker, b.faults[i].worker);
    EXPECT_EQ(a.faults[i].factor, b.faults[i].factor);
  }
}

ExperimentConfig compile_single(const CliArgs& args,
                                const SpecDefaults& defaults) {
  const ScenarioSpec spec =
      resolve_spec(spec_overlay_from_cli(args), defaults);
  CompiledCampaign compiled = compile_spec(spec);
  EXPECT_EQ(compiled.entries.size(), 1u);
  return compiled.entries.front().config;
}

TEST(SpecCliIdentity, RunDefaultsCompileToTheLegacyConfig) {
  const char* argv[] = {"run"};
  const ExperimentConfig compiled =
      compile_single(CliArgs(1, argv), run_spec_defaults());
  const ExperimentConfig legacy;  // pre-refactor cmd_run defaults, spelled out
  ExperimentConfig expected = legacy;
  expected.strategy = "DynamicOuter2Phases";
  expected.reps = 10;
  expect_config_eq(compiled, expected);
  EXPECT_NE(compiled.config_hash, 0u);
}

TEST(SpecCliIdentity, RunFlagsCompileToTheLegacyConfig) {
  const char* argv[] = {"run",       "--kernel=matmul", "--n=12",
                        "--p=4",     "--scenario=unif.1", "--reps=2",
                        "--seed=7",  "--beta=1.25",     "--timed",
                        "--bandwidth=40", "--latency=0.5", "--lookahead=3",
                        "--faults=1:0:0.5"};
  const ExperimentConfig compiled = compile_single(
      CliArgs(static_cast<int>(std::size(argv)), argv), run_spec_defaults());

  // The exact statements legacy cmd_run executed for these flags.
  ExperimentConfig legacy;
  legacy.kernel = Kernel::kMatmul;
  legacy.strategy = "DynamicMatrix2Phases";
  legacy.n = 12;
  legacy.p = 4;
  legacy.scenario = named_scenario("unif.1");
  legacy.reps = 2;
  legacy.seed = 7;
  legacy.phase2_fraction = std::exp(-1.25);
  legacy.timed = true;
  legacy.comm.bandwidth = 40.0;
  legacy.comm.latency = 0.5;
  legacy.lookahead = 3;
  legacy.faults = {WorkerFault{1.0, 0, 0.5}};
  expect_config_eq(compiled, legacy);
}

TEST(SpecCliIdentity, ExperimentJsonIsByteIdenticalModuloHash) {
  // One small real run, serialized once with the legacy (hash-free)
  // config and once with the spec-compiled config: the only difference
  // may be the config_hash field.
  const char* argv[] = {"run", "--strategy=RandomOuter", "--n=8", "--p=3",
                        "--reps=2", "--scenario=hom"};
  ExperimentConfig compiled = compile_single(
      CliArgs(static_cast<int>(std::size(argv)), argv), run_spec_defaults());

  ExperimentConfig legacy;
  legacy.strategy = "RandomOuter";
  legacy.n = 8;
  legacy.p = 3;
  legacy.reps = 2;
  legacy.scenario = named_scenario("hom");
  expect_config_eq(compiled, legacy);

  const ExperimentResult result = run_experiment(legacy);

  std::ostringstream legacy_json;
  write_experiment_json(legacy_json, legacy, result, /*include_reps=*/false);
  std::ostringstream hashed_json;
  write_experiment_json(hashed_json, compiled, result, /*include_reps=*/false);
  EXPECT_NE(legacy_json.str(), hashed_json.str());
  EXPECT_NE(hashed_json.str().find("\"config_hash\""), std::string::npos);

  // With the stamp removed, the spec-compiled config serializes
  // byte-identically to the hand-built one.
  compiled.config_hash = 0;
  std::ostringstream stripped_json;
  write_experiment_json(stripped_json, compiled, result,
                        /*include_reps=*/false);
  EXPECT_EQ(legacy_json.str(), stripped_json.str());
}

TEST(SpecCliIdentity, CampaignFlagsCompileToTheLegacyEntries) {
  const char* argv[] = {"campaign", "--p=4,8", "--n=16", "--reps=2",
                        "--seed=5"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  const CompiledCampaign compiled = compile_spec(
      resolve_spec(spec_overlay_from_cli(args), batch_spec_defaults()));

  // The exact loop legacy cmd_campaign ran for these flags.
  std::vector<CampaignEntry> legacy;
  for (const std::uint32_t p : {4u, 8u}) {
    for (const std::string& strategy :
         {std::string("RandomOuter"), std::string("DynamicOuter"),
          std::string("DynamicOuter2Phases")}) {
      ExperimentConfig config;
      config.kernel = Kernel::kOuter;
      config.strategy = strategy;
      config.n = 16;
      config.p = p;
      config.reps = 2;
      config.seed = 5;
      config.scenario = named_scenario("default");
      legacy.push_back(
          CampaignEntry{strategy + ".p" + std::to_string(p), config});
    }
  }
  EXPECT_EQ(compiled.name, "cli");
  ASSERT_EQ(compiled.entries.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(compiled.entries[i].label, legacy[i].label);
    expect_config_eq(compiled.entries[i].config, legacy[i].config);
  }
}

TEST(SpecCliIdentity, SpecFileAndFlagsCompileIdentically) {
  // The same campaign expressed as flags and as a .hspec document must
  // produce identical entries, hashes included — the in-process version
  // of CI's spec-vs-flag bit-identity check.
  const char* argv[] = {"campaign", "--strategies=RandomOuter,DynamicOuter",
                        "--p=2,3",  "--n=8",
                        "--reps=2", "--scenario=hom"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  const CompiledCampaign from_flags = compile_spec(
      resolve_spec(spec_overlay_from_cli(args), batch_spec_defaults()));

  const CompiledCampaign from_text = compile_spec(resolve_spec(
      parse_spec("[platform]\n"
                 "scenario = hom\n"
                 "[experiment]\n"
                 "reps = 2\n"
                 "[grid]\n"
                 "strategy = RandomOuter, DynamicOuter\n"
                 "n = 8\n"
                 "p = 2, 3\n"),
      batch_spec_defaults()));

  ASSERT_EQ(from_flags.entries.size(), from_text.entries.size());
  for (std::size_t i = 0; i < from_flags.entries.size(); ++i) {
    EXPECT_EQ(from_flags.entries[i].label, from_text.entries[i].label);
    expect_config_eq(from_flags.entries[i].config, from_text.entries[i].config);
    EXPECT_EQ(from_flags.entries[i].config.config_hash,
              from_text.entries[i].config.config_hash);
  }

  // And the runs themselves are bit-identical (configs fully determine
  // results; both tiny).
  Campaign a(from_flags.name), b(from_text.name);
  for (const auto& e : from_flags.entries) a.add(e.label, e.config);
  for (const auto& e : from_text.entries) b.add(e.label, e.config);
  const auto ra = a.run(1);
  const auto rb = b.run(1);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].result.normalized.mean, rb[i].result.normalized.mean);
    EXPECT_EQ(ra[i].result.makespan.mean, rb[i].result.makespan.mean);
  }
}

}  // namespace
}  // namespace hetsched
