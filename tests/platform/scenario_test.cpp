#include "platform/scenario.hpp"

#include <ostream>

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TEST(Scenario, PaperDefaultIsUniform10To100) {
  const Scenario s = paper_default_scenario();
  EXPECT_EQ(s.name, "default");
  EXPECT_FALSE(s.perturbation.enabled());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = s.speeds->draw(rng);
    EXPECT_GE(v, 10.0);
    EXPECT_LT(v, 100.0);
  }
}

TEST(Scenario, HeterogeneityBoundsSpeeds) {
  const Scenario s = heterogeneity_scenario(40.0);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = s.speeds->draw(rng);
    EXPECT_GE(v, 60.0);
    EXPECT_LT(v, 140.0);
  }
}

TEST(Scenario, HeterogeneityZeroIsHomogeneous) {
  const Scenario s = heterogeneity_scenario(0.0);
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(s.speeds->draw(rng), 100.0);
}

TEST(Scenario, HeterogeneityRejectsOutOfRange) {
  EXPECT_THROW(heterogeneity_scenario(-1.0), std::invalid_argument);
  EXPECT_THROW(heterogeneity_scenario(100.0), std::invalid_argument);
}

struct NamedCase {
  const char* name;
  double lo;
  double hi;        // draw range (inclusive set values allowed)
  double perturb;   // expected perturbation percent
};

// Without this gtest prints the raw bytes of the case, pointer included,
// and the discovered test names change with the load address.
void PrintTo(const NamedCase& c, std::ostream* os) { *os << c.name; }

class NamedScenarioTest : public ::testing::TestWithParam<NamedCase> {};

TEST_P(NamedScenarioTest, MatchesPaperDefinition) {
  const NamedCase& c = GetParam();
  const Scenario s = named_scenario(c.name);
  EXPECT_EQ(s.name, c.name);
  EXPECT_NEAR(s.perturbation.max_percent(), c.perturb, 1e-12);
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    const double v = s.speeds->draw(rng);
    EXPECT_GE(v, c.lo);
    EXPECT_LE(v, c.hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, NamedScenarioTest,
    ::testing::Values(NamedCase{"unif.1", 80.0, 120.0, 0.0},
                      NamedCase{"unif.2", 50.0, 150.0, 0.0},
                      NamedCase{"set.3", 80.0, 150.0, 0.0},
                      NamedCase{"set.5", 40.0, 200.0, 0.0},
                      NamedCase{"dyn.5", 80.0, 120.0, 5.0},
                      NamedCase{"dyn.20", 80.0, 120.0, 20.0}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (auto& ch : name) {
        if (ch == '.') ch = '_';
      }
      return name;
    });

TEST(Scenario, Set3DrawsExactlyTheThreeClasses) {
  const Scenario s = named_scenario("set.3");
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const double v = s.speeds->draw(rng);
    EXPECT_TRUE(v == 80.0 || v == 100.0 || v == 150.0) << v;
  }
}

TEST(Scenario, UnknownNameThrows) {
  EXPECT_THROW(named_scenario("nope"), std::invalid_argument);
}

TEST(Scenario, Figure8ListIsCompleteAndOrdered) {
  const auto& names = figure8_scenario_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names.front(), "unif.1");
  EXPECT_EQ(names.back(), "dyn.20");
  for (const auto& name : names) {
    EXPECT_NO_THROW(named_scenario(name)) << name;
  }
}

TEST(Scenario, HomIsHomogeneous) {
  const Scenario s = named_scenario("hom");
  Rng rng(6);
  EXPECT_DOUBLE_EQ(s.speeds->draw(rng), 100.0);
  EXPECT_DOUBLE_EQ(s.speeds->draw(rng), 100.0);
}

}  // namespace
}  // namespace hetsched
