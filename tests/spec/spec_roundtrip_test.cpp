// The canonical-form round-trip invariant:
//
//   resolve_spec(parse_spec(canonical_text(s)), d) == s
//
// for every resolved spec s and ANY defaults d (a canonical text pins
// every field, so the defaults never matter). Exercised over the full
// preset set x engine x faults x grid shapes, plus every inline
// platform kind with awkward doubles.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "spec/parse.hpp"
#include "spec/spec.hpp"

namespace hetsched {
namespace {

ScenarioSpec base_resolved() {
  return resolve_spec(ScenarioSpec{}, batch_spec_defaults());
}

void expect_roundtrip(const ScenarioSpec& resolved) {
  const std::string text = canonical_text(resolved);
  // Through either entry point's defaults: canonical text is complete.
  EXPECT_EQ(resolve_spec(parse_spec(text), batch_spec_defaults()), resolved)
      << text;
  EXPECT_EQ(resolve_spec(parse_spec(text), run_spec_defaults()), resolved)
      << text;
  // Canonicalization is idempotent.
  EXPECT_EQ(canonical_text(resolve_spec(parse_spec(text), run_spec_defaults())),
            text);
}

TEST(SpecRoundtrip, DefaultsResolveAndRoundtrip) {
  const ScenarioSpec resolved = base_resolved();
  validate_spec(resolved);
  expect_roundtrip(resolved);
}

TEST(SpecRoundtrip, EveryPresetTimedFaultsGrid) {
  const std::vector<std::string> presets{"default", "hom",   "unif.1",
                                         "unif.2",  "set.3", "set.5",
                                         "dyn.5",   "dyn.20"};
  for (const std::string& preset : presets) {
    for (const bool timed : {false, true}) {
      for (const bool with_faults : {false, true}) {
        for (const bool wide_grid : {false, true}) {
          ScenarioSpec s = base_resolved();
          s.platform->preset = preset;
          s.timed = timed;
          if (timed) {
            s.bandwidth = 37.5;
            s.latency = 0.125;
            s.lookahead = 2;
          }
          if (with_faults) {
            s.faults = {FaultSpec{0.0, 0, 0.0}, FaultSpec{2.5, 3, 0.5}};
          }
          if (wide_grid) {
            s.ns = {50, 100};
            s.ps = {10, 20};
            s.phase2s = {0.25, 1.0};
            s.strategies = {"RandomOuter", "DynamicOuter"};
          }
          validate_spec(s);
          expect_roundtrip(s);
        }
      }
    }
  }
}

TEST(SpecRoundtrip, InlinePlatformsWithAwkwardDoubles) {
  // Values a %g-style printer would mangle; to_chars must carry them
  // through the text form exactly.
  const double awkward = 0.1 + 0.2;  // 0.30000000000000004
  std::vector<SpeedSpec> platforms;

  SpeedSpec uniform;
  uniform.kind = SpeedSpec::Kind::kUniform;
  uniform.lo = awkward;
  uniform.hi = 1e17;
  platforms.push_back(uniform);

  SpeedSpec set;
  set.kind = SpeedSpec::Kind::kSet;
  set.values = {awkward, 1.0 / 3.0, 100.0};
  set.perturb_percent = 5.0;
  platforms.push_back(set);

  SpeedSpec list;
  list.kind = SpeedSpec::Kind::kList;
  list.values = {10.0, 40.0, 25.0, 25.0};
  platforms.push_back(list);

  SpeedSpec twoclass;
  twoclass.kind = SpeedSpec::Kind::kTwoClass;
  twoclass.slow = 10.0;
  twoclass.fast = 100.0;
  twoclass.fast_fraction = 2.0 / 3.0;
  platforms.push_back(twoclass);

  SpeedSpec hom;
  hom.kind = SpeedSpec::Kind::kHomogeneous;
  hom.speed = 99.9;
  platforms.push_back(hom);

  for (const SpeedSpec& platform : platforms) {
    ScenarioSpec s = base_resolved();
    s.platform = platform;
    s.phase2s = {awkward};
    validate_spec(s);
    expect_roundtrip(s);
  }
}

TEST(SpecRoundtrip, NonDefaultScalars) {
  ScenarioSpec s = base_resolved();
  s.name = "weird-name.v2+x_y";
  s.kernel = Kernel::kMatmul;
  s.strategies = {"DynamicMatrix2Phases"};
  s.ns = {17};
  s.ps = {3};
  s.reps = 1;
  s.seed = 18446744073709551615ull;  // max u64 survives the text form
  validate_spec(s);
  expect_roundtrip(s);
}

TEST(SpecRoundtrip, ResolveRejectsInertCommKnobs) {
  ScenarioSpec s;
  s.bandwidth = 10.0;
  EXPECT_THROW(resolve_spec(s, batch_spec_defaults()), SpecError);
  s = ScenarioSpec{};
  s.latency = 1.0;
  EXPECT_THROW(resolve_spec(s, batch_spec_defaults()), SpecError);
  s = ScenarioSpec{};
  s.lookahead = 2;
  EXPECT_THROW(resolve_spec(s, batch_spec_defaults()), SpecError);
  // With the timed engine they are legal and preserved.
  s = ScenarioSpec{};
  s.timed = true;
  s.bandwidth = 10.0;
  const ScenarioSpec resolved = resolve_spec(s, batch_spec_defaults());
  EXPECT_EQ(resolved.bandwidth, 10.0);
  validate_spec(resolved);
  expect_roundtrip(resolved);
}

TEST(SpecRoundtrip, ValidationCatchesBadSpecs) {
  const auto invalid = [](const auto& mutate) {
    ScenarioSpec s = base_resolved();
    mutate(s);
    EXPECT_THROW(validate_spec(s), SpecError);
  };
  invalid([](ScenarioSpec& s) { s.name = "has spaces"; });
  invalid([](ScenarioSpec& s) { s.strategies = {"NoSuchStrategy"}; });
  invalid([](ScenarioSpec& s) { s.strategies = {"DynamicMatrix"}; });  // kernel mismatch
  invalid([](ScenarioSpec& s) { s.ns = {0}; });
  // Past the kernel's own size limit (validate(OuterConfig) /
  // validate(MatmulConfig)).
  invalid([](ScenarioSpec& s) { s.ns = {(1u << 20) + 1}; });
  invalid([](ScenarioSpec& s) {
    s.kernel = Kernel::kMatmul;
    s.strategies = {"DynamicMatrix"};
    s.ns = {1025};
  });
  invalid([](ScenarioSpec& s) { s.ps = {10, 10}; });
  invalid([](ScenarioSpec& s) { s.phase2s = {1.5}; });
  invalid([](ScenarioSpec& s) { s.phase2s = {0.0}; });
  invalid([](ScenarioSpec& s) { s.reps = 0; });
  invalid([](ScenarioSpec& s) { s.platform->preset = "marsrover"; });
  invalid([](ScenarioSpec& s) { s.platform->perturb_percent = 5.0; });
  invalid([](ScenarioSpec& s) {
    s.timed = true;
    s.bandwidth = 0.0;
  });
  invalid([](ScenarioSpec& s) { s.faults = {FaultSpec{-1.0, 0, 0.0}}; });
  invalid([](ScenarioSpec& s) { s.faults = {FaultSpec{1.0, 0, 1.5}}; });
  // Fault targets a worker >= the smallest grid p.
  invalid([](ScenarioSpec& s) { s.faults = {FaultSpec{1.0, 10, 0.0}}; });

  // An infinite value is reported as not finite, not as a failed
  // lower-bound check it would pass.
  const auto not_finite = [](const auto& mutate) {
    ScenarioSpec s = base_resolved();
    mutate(s);
    try {
      validate_spec(s);
      ADD_FAILURE() << "accepted";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("finite and >"), std::string::npos)
          << e.what();
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  not_finite([&](ScenarioSpec& s) {
    s.timed = true;
    s.bandwidth = inf;
  });
  not_finite([&](ScenarioSpec& s) {
    s.timed = true;
    s.latency = inf;
  });
  not_finite([&](ScenarioSpec& s) { s.faults = {FaultSpec{inf, 0, 0.0}}; });
}

}  // namespace
}  // namespace hetsched
