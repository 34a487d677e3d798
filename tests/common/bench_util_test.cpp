// The bench CLI plumbing is header-only; pull it in by relative path.
// The figure-spec loader reads bench/figures through the same
// HETSCHED_FIGURES_DIR definition the benches get.
#include "../../bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace hetsched::bench {
namespace {

CliArgs flags(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(FigureSpecs, EveryFigureSpecCompilesWithHashes) {
  for (const char* name :
       {"fig01", "fig02", "fig04", "fig05", "fig06", "fig09", "fig10",
        "fig11", "ext_work_stealing"}) {
    const CompiledCampaign compiled =
        compile_spec(load_figure_spec(name, flags({})));
    EXPECT_EQ(compiled.name, name);
    ASSERT_FALSE(compiled.entries.empty()) << name;
    for (const auto& entry : compiled.entries) {
      EXPECT_NE(entry.config.config_hash, 0u) << name << " " << entry.label;
    }
  }
}

TEST(FigureSpecs, FlagsOverlayTheSpec) {
  const ScenarioSpec spec =
      load_figure_spec("fig04", flags({"--n=30", "--p=4,8", "--reps=2"}));
  EXPECT_EQ(spec.ns, std::vector<std::uint32_t>{30});
  EXPECT_EQ(spec.ps, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(*spec.reps, 2u);
  EXPECT_EQ(*spec.seed, 20140623u);
}

TEST(FigureSpecs, FixedDrawRejectsAnotherP) {
  // Figure 6's list holds 20 speeds; 21 workers would cycle it.
  EXPECT_NO_THROW(load_figure_spec("fig06", flags({"--p=20"})));
  try {
    load_figure_spec("fig06", flags({"--p=21"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--p"), std::string::npos);
  }
}

TEST(FigureSpecs, UnreadFlagRejected) {
  // A misspelled --reps used to run the spec's default reps.
  try {
    load_figure_spec("fig04", flags({"--rep=1"}));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unrecognized flag --rep");
  }
}

}  // namespace
}  // namespace hetsched::bench
