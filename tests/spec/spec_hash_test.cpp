// config_hash stability goldens and semantics.
//
// The hex goldens pin the canonical text layout AND the FNV-1a 64
// parameters byte-for-byte: the hash is the identity of one compiled
// point, printed by `hetsched_cli validate` and carried in the report
// JSON, so an accidental change here would silently change every
// published identity. Update a golden only for an intentional,
// documented format bump. The golden points avoid exp()-derived values
// so the expected bytes cannot depend on libm.
#include <gtest/gtest.h>

#include "common/json.hpp"
#include "spec/compile.hpp"
#include "spec/parse.hpp"
#include "spec/spec.hpp"

namespace hetsched {
namespace {

TEST(SpecHash, Fnv1a64KnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(SpecHash, Hex16IsFixedWidthLowercase) {
  EXPECT_EQ(JsonWriter::hex16(0), "0000000000000000");
  EXPECT_EQ(JsonWriter::hex16(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(JsonWriter::hex16(0xffffffffffffffffull), "ffffffffffffffff");
}

// The point spec ExperimentConfig{} describes: DynamicOuter, n = 100,
// p = 20, the default platform, 10 reps, untimed.
ScenarioSpec default_point() {
  return resolve_spec(parse_spec("[grid]\nstrategy = DynamicOuter\n"),
                      run_spec_defaults());
}

TEST(SpecHash, StabilityGoldens) {
  const ScenarioSpec defaults = default_point();
  EXPECT_EQ(JsonWriter::hex16(config_hash(defaults)), "c5c5aa94d5e5f0aa");

  ScenarioSpec timed = defaults;
  timed.kernel = Kernel::kMatmul;
  timed.strategies = {"DynamicMatrix2Phases"};
  timed.ns = {40};
  timed.phase2s = {0.5};  // exact double: no libm in the bytes
  timed.timed = true;
  timed.bandwidth = 50.0;
  timed.latency = 0.25;
  timed.lookahead = 2;
  timed.faults = {FaultSpec{1.5, 0, 0.0}, FaultSpec{3.0, 4, 0.5}};
  EXPECT_EQ(JsonWriter::hex16(config_hash(timed)), "81b0bd4396b4e413");

  ScenarioSpec inline_platform = defaults;
  inline_platform.platform = SpeedSpec{};
  inline_platform.platform->kind = SpeedSpec::Kind::kTwoClass;
  inline_platform.platform->slow = 10.0;
  inline_platform.platform->fast = 100.0;
  inline_platform.platform->fast_fraction = 0.25;
  EXPECT_EQ(JsonWriter::hex16(config_hash(inline_platform)),
            "06d05f2533306a90");
}

TEST(SpecHash, NeutralFieldsDoNotChangeTheHash) {
  const ScenarioSpec base = default_point();
  const std::uint64_t h = config_hash(base);
  // The seed picks the draws, not the point; it is not inside the hash.
  ScenarioSpec seeded = base;
  seeded.seed = 12345;
  EXPECT_EQ(config_hash(seeded), h);
  // The campaign name is presentation only.
  ScenarioSpec renamed = base;
  renamed.name = "elsewhere";
  EXPECT_EQ(config_hash(renamed), h);
  // An untimed point hashes independently of inert comm knobs.
  ScenarioSpec inert = base;
  inert.bandwidth = 1.0;
  inert.lookahead = 9;
  EXPECT_EQ(config_hash(inert), h);
  // Rep parallelism and telemetry are ExperimentConfig fields with no
  // spec counterpart, so they cannot reach the hash at all.
}

TEST(SpecHash, EveryResultDeterminingFieldIsSensitive) {
  const ScenarioSpec base = default_point();
  const std::uint64_t h = config_hash(base);
  const auto differs = [&](const auto& mutate) {
    ScenarioSpec c = base;
    mutate(c);
    EXPECT_NE(config_hash(c), h);
  };
  differs([](ScenarioSpec& c) { c.kernel = Kernel::kMatmul; });
  differs([](ScenarioSpec& c) { c.strategies = {"RandomOuter"}; });
  differs([](ScenarioSpec& c) { c.ns = {101}; });
  differs([](ScenarioSpec& c) { c.ps = {21}; });
  differs([](ScenarioSpec& c) { c.platform->preset = "unif.1"; });
  differs([](ScenarioSpec& c) { c.phase2s = {0.5}; });
  differs([](ScenarioSpec& c) { c.reps = 11; });
  differs([](ScenarioSpec& c) { c.timed = true; });
  differs([](ScenarioSpec& c) {
    c.timed = true;
    c.bandwidth = 10.0;
  });
  differs([](ScenarioSpec& c) { c.faults = {FaultSpec{1.0, 0, 0.5}}; });
}

// One golden per SpeedSpec kind, taken through the whole front end
// (parse_spec -> resolve_spec -> compile_spec) so every path that
// stamps a hash into validate output or report JSON is pinned.
std::vector<std::string> compiled_hashes(const std::string& text) {
  const CompiledCampaign compiled =
      compile_spec(resolve_spec(parse_spec(text), batch_spec_defaults()));
  std::vector<std::string> out;
  for (const CampaignEntry& entry : compiled.entries) {
    out.push_back(JsonWriter::hex16(entry.config.config_hash));
  }
  return out;
}

TEST(SpecHash, CompiledPointGoldensPerSpeedKind) {
  const std::string grid =
      "[grid]\nstrategy = DynamicOuter2Phases\nn = 30\np = 6\n";
  const auto point = [&](const std::string& platform) {
    const std::vector<std::string> hashes =
        compiled_hashes("[platform]\n" + platform + "\n" + grid);
    EXPECT_EQ(hashes.size(), 1u) << platform;
    return hashes.empty() ? std::string() : hashes.front();
  };
  EXPECT_EQ(point("scenario = dyn.5"), "b0fd83ea373e2ac9");
  EXPECT_EQ(point("speeds = uniform 10 100"), "4bb1474339c97d65");
  EXPECT_EQ(point("speeds = set 40 80 150"), "ff072e526bb9db43");
  EXPECT_EQ(point("speeds = list 12.5 50 100"), "a02a1b9d27af82b7");
  EXPECT_EQ(point("speeds = twoclass 10 100 0.25"), "c6bb19b963c20dce");
  EXPECT_EQ(point("speeds = hom 100\nperturb = 5"), "c54e008314a2522e");

  const std::vector<std::string> timed_grid = compiled_hashes(
      "[experiment]\nkernel = matmul\nreps = 3\nseed = 9\n"
      "[engine]\ntimed = true\nbandwidth = 150\nlatency = 0.002\n"
      "lookahead = 4\n"
      "[grid]\nstrategy = DynamicMatrix2Phases\nn = 12\np = 4, 8\n"
      "phase2 = 0.25, 0.5\n"
      "[faults]\nfault = 1:1:0.5\nfault = 2:3:0\n");
  EXPECT_EQ(timed_grid,
            (std::vector<std::string>{"5c54685770be7b1a", "e71441292a928fd8",
                                      "44e6473eaf82644e",
                                      "071e0e2ebde028c4"}));
}

}  // namespace
}  // namespace hetsched
