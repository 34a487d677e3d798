// Parser goldens: the .hspec front-end must produce exactly the right
// partial spec, and every diagnostic must carry the message, line and
// column the docs promise (these are golden — error text is API).
#include "spec/parse.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <string_view>

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TEST(SpecParse, FullDocumentEveryKey) {
  const ScenarioSpec spec = parse_spec(
      "# a comment line\n"
      "[campaign]\n"
      "name = fig05   # trailing comment\n"
      "\n"
      "[experiment]\n"
      "kernel = matmul\n"
      "reps = 7\n"
      "seed = 123\n"
      "[platform]\n"
      "scenario = unif.2\n"
      "[engine]\n"
      "timed = true\n"
      "bandwidth = 55.5\n"
      "latency = 0.25\n"
      "lookahead = 3\n"
      "[grid]\n"
      "strategy = RandomMatrix, DynamicMatrix\n"
      "n = 10, 20\n"
      "p = 4\n"
      "phase2 = 0.5, 0.25\n"
      "[faults]\n"
      "fault = 1.5:0:0\n"
      "fault = 2:1:0.5\n");
  EXPECT_EQ(spec.name, "fig05");
  EXPECT_EQ(spec.kernel, Kernel::kMatmul);
  EXPECT_EQ(spec.reps, 7u);
  EXPECT_EQ(spec.seed, 123u);
  ASSERT_TRUE(spec.platform.has_value());
  EXPECT_EQ(spec.platform->kind, SpeedSpec::Kind::kPreset);
  EXPECT_EQ(spec.platform->preset, "unif.2");
  EXPECT_EQ(spec.timed, true);
  EXPECT_EQ(spec.bandwidth, 55.5);
  EXPECT_EQ(spec.latency, 0.25);
  EXPECT_EQ(spec.lookahead, 3u);
  EXPECT_EQ(spec.strategies,
            (std::vector<std::string>{"RandomMatrix", "DynamicMatrix"}));
  EXPECT_EQ(spec.ns, (std::vector<std::uint32_t>{10, 20}));
  EXPECT_EQ(spec.ps, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(spec.phase2s, (std::vector<double>{0.5, 0.25}));
  ASSERT_EQ(spec.faults.size(), 2u);
  EXPECT_EQ(spec.faults[0], (FaultSpec{1.5, 0, 0.0}));
  EXPECT_EQ(spec.faults[1], (FaultSpec{2.0, 1, 0.5}));
}

TEST(SpecParse, EmptyTextIsEmptySpec) {
  EXPECT_EQ(parse_spec(""), ScenarioSpec{});
  EXPECT_EQ(parse_spec("# only comments\n\n"), ScenarioSpec{});
}

TEST(SpecParse, InlineSpeedKinds) {
  const auto platform = [](std::string_view body) {
    return *parse_spec(std::string("[platform]\n") + std::string(body))
                .platform;
  };
  SpeedSpec uniform;
  uniform.kind = SpeedSpec::Kind::kUniform;
  uniform.lo = 10;
  uniform.hi = 100;
  EXPECT_EQ(platform("speeds = uniform 10 100\n"), uniform);

  SpeedSpec set;
  set.kind = SpeedSpec::Kind::kSet;
  set.values = {80, 100, 150};
  EXPECT_EQ(platform("speeds = set 80 100 150\n"), set);

  SpeedSpec list;
  list.kind = SpeedSpec::Kind::kList;
  list.values = {5, 6};
  list.perturb_percent = 12.5;
  EXPECT_EQ(platform("speeds = list 5 6\nperturb = 12.5\n"), list);

  SpeedSpec twoclass;
  twoclass.kind = SpeedSpec::Kind::kTwoClass;
  twoclass.slow = 10;
  twoclass.fast = 100;
  twoclass.fast_fraction = 0.25;
  EXPECT_EQ(platform("speeds = twoclass 10 100 0.25\n"), twoclass);

  SpeedSpec hom;
  hom.kind = SpeedSpec::Kind::kHomogeneous;
  hom.speed = 42;
  EXPECT_EQ(platform("speeds = hom 42\n"), hom);
}

TEST(SpecParse, BetaConvertsLikeTheLegacyFlag) {
  const ScenarioSpec spec = parse_spec("[grid]\nbeta = 4.2, 0\n");
  ASSERT_EQ(spec.phase2s.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.phase2s[0], std::exp(-4.2));
  EXPECT_DOUBLE_EQ(spec.phase2s[1], 1.0);
}

// Diagnostics: exact message, line and column.
struct ErrorCase {
  const char* text;
  const char* what;
  std::size_t line;
  std::size_t column;
};

// Names each case by its input, one source line per " | " segment.
// Without this gtest prints the raw bytes of the case, pointers included,
// and the discovered test names change with the load address.
void PrintTo(const ErrorCase& c, std::ostream* os) {
  std::string_view text = c.text;
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  for (const char ch : text) {
    if (ch == '\n') {
      *os << " | ";
    } else {
      *os << ch;
    }
  }
}

class SpecParseError : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(SpecParseError, MessageLineColumn) {
  const ErrorCase& c = GetParam();
  try {
    parse_spec(c.text);
    FAIL() << "expected SpecError for: " << c.text;
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), c.what) << "input: " << c.text;
    EXPECT_EQ(e.line(), c.line) << "input: " << c.text;
    EXPECT_EQ(e.column(), c.column) << "input: " << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Goldens, SpecParseError,
    ::testing::Values(
        ErrorCase{"[nope]\n",
                  "line 1, col 1: unknown section '[nope]' (sections: "
                  "campaign, experiment, platform, engine, grid, faults)",
                  1, 1},
        ErrorCase{"[campaign\n",
                  "line 1, col 1: unterminated section header (missing ']')",
                  1, 1},
        ErrorCase{"kernel = outer\n",
                  "line 1, col 1: key 'kernel' appears before any [section] "
                  "header",
                  1, 1},
        ErrorCase{"[experiment]\n  what\n",
                  "line 2, col 3: expected 'key = value' or '[section]'", 2,
                  3},
        ErrorCase{"[experiment]\nkernel =\n",
                  "line 2, col 9: [experiment] kernel: expected a value "
                  "after '='",
                  2, 9},
        ErrorCase{"[experiment]\nkernel = cuda\n",
                  "line 2, col 10: [experiment] kernel: expected outer or "
                  "matmul, got 'cuda'",
                  2, 10},
        ErrorCase{"[experiment]\nreps = 5\nreps = 6\n",
                  "line 3, col 1: duplicate key: [experiment] reps", 3, 1},
        ErrorCase{"[experiment]\ncolor = red\n",
                  "line 2, col 1: [experiment] color: unknown key "
                  "(experiment keys: kernel, reps, seed)",
                  2, 1},
        ErrorCase{"[experiment]\nlanes = 2\n",
                  "line 2, col 1: [experiment] lanes: unknown key "
                  "(experiment keys: kernel, reps, seed)",
                  2, 1},
        ErrorCase{"[grid]\nn = 10, x, 30\n",
                  "line 2, col 9: [grid] n: expected a positive integer, "
                  "got 'x'",
                  2, 9},
        ErrorCase{"[grid]\nbeta = 1\nphase2 = 0.5\n",
                  "line 3, col 1: [grid] beta and phase2 are mutually "
                  "exclusive",
                  3, 1},
        ErrorCase{"[platform]\nscenario = default\nspeeds = hom 5\n",
                  "line 3, col 1: [platform] scenario and speeds are "
                  "mutually exclusive",
                  3, 1},
        ErrorCase{"[platform]\nspeeds = warp 1 2\n",
                  "line 2, col 10: [platform] speeds: unknown kind 'warp' "
                  "(kinds: uniform, set, list, twoclass, hom)",
                  2, 10},
        ErrorCase{"[platform]\nspeeds = uniform 10\n",
                  "line 2, col 10: [platform] speeds: uniform takes exactly "
                  "2 values (lo hi)",
                  2, 10},
        ErrorCase{"[platform]\nspeeds = hom fast\n",
                  "line 2, col 14: [platform] speeds: expected a number, "
                  "got 'fast'",
                  2, 14},
        // The satellite fix: fault fields are named, ranges are checked,
        // and trailing garbage like "0.5x" is rejected.
        ErrorCase{"[faults]\nfault = 1:2\n",
                  "line 2, col 9: [faults] fault: expected "
                  "time:worker:factor, got '1:2'",
                  2, 9},
        ErrorCase{"[faults]\nfault = -1:2:0.5\n",
                  "line 2, col 9: [faults] fault.time: expected a finite "
                  "number >= 0, got '-1'",
                  2, 9},
        ErrorCase{"[faults]\nfault = inf:2:0.5\n",
                  "line 2, col 9: [faults] fault.time: expected a finite "
                  "number >= 0, got 'inf'",
                  2, 9},
        ErrorCase{"[faults]\nfault = 1:two:0.5\n",
                  "line 2, col 9: [faults] fault.worker: expected a worker "
                  "index, got 'two'",
                  2, 9},
        ErrorCase{"[faults]\nfault = 1:2:0.5x\n",
                  "line 2, col 9: [faults] fault.factor: expected 0 (crash) "
                  "or a factor in (0, 1), got '0.5x'",
                  2, 9},
        ErrorCase{"[faults]\nfault = 1:2:1.5\n",
                  "line 2, col 9: [faults] fault.factor: expected 0 (crash) "
                  "or a factor in (0, 1), got '1.5'",
                  2, 9}));

TEST(SpecParse, FaultListNamesTheItem) {
  try {
    parse_fault_list("1:0:0.5,2:1:-3");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "faults[1].factor: expected 0 (crash) or a factor in "
                 "(0, 1), got '-3'");
  }
}

TEST(SpecParse, FileErrorsArePrefixedWithThePath) {
  EXPECT_THROW(parse_spec_file("/nonexistent/x.hspec"), std::runtime_error);
  const std::string path = ::testing::TempDir() + "/bad.hspec";
  {
    std::ofstream out(path);
    out << "[grid]\nn = zero\n";
  }
  try {
    parse_spec_file(path);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(std::string(e.what()),
              path + ": line 2, col 5: [grid] n: expected a positive "
              "integer, got 'zero'");
  }
}

}  // namespace
}  // namespace hetsched
