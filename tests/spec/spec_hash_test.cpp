// config_hash stability goldens and semantics.
//
// The hex goldens pin the canonical text layout AND the FNV-1a 64
// parameters byte-for-byte: the hash is the planned result cache's key
// (ROADMAP item 1), so an accidental change here would silently
// invalidate every cached result. Update a golden only for an
// intentional, documented format bump. The golden configs avoid
// exp()-derived values so the expected bytes cannot depend on libm.
#include <gtest/gtest.h>

#include "common/json.hpp"
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

TEST(SpecHash, StabilityGoldens) {
  const ExperimentConfig defaults;  // DynamicOuter, n=100, p=20, default
  EXPECT_EQ(JsonWriter::hex16(config_hash(defaults)), "c5c5aa94d5e5f0aa");

  ExperimentConfig timed = defaults;
  timed.kernel = Kernel::kMatmul;
  timed.strategy = "DynamicMatrix2Phases";
  timed.n = 40;
  timed.phase2_fraction = 0.5;  // exact double: no libm in the bytes
  timed.timed = true;
  timed.comm.bandwidth = 50.0;
  timed.comm.latency = 0.25;
  timed.lookahead = 2;
  timed.faults = {WorkerFault{1.5, 0, 0.0}, WorkerFault{3.0, 4, 0.5}};
  EXPECT_EQ(JsonWriter::hex16(config_hash(timed)), "81b0bd4396b4e413");

  ExperimentConfig inline_platform = defaults;
  inline_platform.scenario =
      Scenario{"twoclass(10,100,0.25)",
               std::make_shared<TwoClassSpeeds>(10.0, 100.0, 0.25),
               PerturbationModel{}};
  EXPECT_EQ(JsonWriter::hex16(config_hash(inline_platform)),
            "06d05f2533306a90");
}

TEST(SpecHash, NeutralFieldsDoNotChangeTheHash) {
  const ExperimentConfig base;
  const std::uint64_t h = config_hash(base);
  // The seed pairs WITH the hash as the cache key; it is not inside it.
  ExperimentConfig seeded = base;
  seeded.seed = 12345;
  EXPECT_EQ(config_hash(seeded), h);
  // Rep parallelism never changes results, so it is hash-neutral too.
  ExperimentConfig parallel = base;
  parallel.parallelism = 4;
  EXPECT_EQ(config_hash(parallel), h);
  // Telemetry is not configuration.
  ExperimentConfig profiled = base;
  profiled.profile = true;
  EXPECT_EQ(config_hash(profiled), h);
  // An untimed config hashes independently of inert comm knobs.
  ExperimentConfig inert = base;
  inert.comm.bandwidth = 1.0;
  inert.lookahead = 9;
  EXPECT_EQ(config_hash(inert), h);
}

TEST(SpecHash, EveryResultDeterminingFieldIsSensitive) {
  const ExperimentConfig base;
  const std::uint64_t h = config_hash(base);
  const auto differs = [&](const auto& mutate) {
    ExperimentConfig c = base;
    mutate(c);
    EXPECT_NE(config_hash(c), h);
  };
  differs([](ExperimentConfig& c) { c.kernel = Kernel::kMatmul; });
  differs([](ExperimentConfig& c) { c.strategy = "RandomOuter"; });
  differs([](ExperimentConfig& c) { c.n = 101; });
  differs([](ExperimentConfig& c) { c.p = 21; });
  differs([](ExperimentConfig& c) { c.scenario = named_scenario("unif.1"); });
  differs([](ExperimentConfig& c) { c.phase2_fraction = 0.5; });
  differs([](ExperimentConfig& c) { c.reps = 11; });
  differs([](ExperimentConfig& c) { c.timed = true; });
  differs([](ExperimentConfig& c) {
    c.timed = true;
    c.comm.bandwidth = 10.0;
  });
  differs([](ExperimentConfig& c) {
    c.faults = {WorkerFault{1.0, 0, 0.5}};
  });
}

TEST(SpecHash, SpecForConfigRoundTripsThroughCompile) {
  // The lifted spec of a config is resolved, valid, and hashes to the
  // config's own hash (idempotence: hashing is lift -> canonical).
  ExperimentConfig config;
  config.strategy = "RandomOuter";
  config.p = 7;
  const ScenarioSpec lifted = spec_for_config(config);
  validate_spec(lifted);
  EXPECT_EQ(fnv1a64(canonical_text(lifted)), config_hash(config));
}

}  // namespace
}  // namespace hetsched
