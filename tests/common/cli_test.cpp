#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace hetsched {
namespace {

CliArgs parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, ParsesKeyValue) {
  const CliArgs args = parse({"prog", "--n=100", "--name=hello"});
  EXPECT_TRUE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 0), 100);
  EXPECT_EQ(args.get("name", ""), "hello");
}

TEST(CliArgs, BareFlagIsTrue) {
  const CliArgs args = parse({"prog", "--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, FallbacksWhenMissing) {
  const CliArgs args = parse({"prog"});
  EXPECT_FALSE(args.has("n"));
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get("s", "dflt"), "dflt");
  EXPECT_TRUE(args.get_bool("b", true));
}

TEST(CliArgs, ParsesDouble) {
  const CliArgs args = parse({"prog", "--beta=4.17"});
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 4.17);
}

TEST(CliArgs, ParsesBoolSpellings) {
  EXPECT_TRUE(parse({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(parse({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(parse({"p", "--x=false"}).get_bool("x", true));
}

TEST(CliArgs, ParsesIntList) {
  const CliArgs args = parse({"prog", "--p=10,50,100"});
  const auto list = args.get_int_list("p", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 10);
  EXPECT_EQ(list[1], 50);
  EXPECT_EQ(list[2], 100);
}

TEST(CliArgs, IntListFallback) {
  const CliArgs args = parse({"prog"});
  const auto list = args.get_int_list("p", {1, 2});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0], 1);
}

// A numeric value is parsed whole: "5x" is not 5 and "1e6" is not the
// integer 1. The error names the flag.
TEST(CliArgs, RejectsMalformedNumbers) {
  const auto rejects = [](const char* flag, const auto& get) {
    const CliArgs args = parse({"prog", flag});
    try {
      get(args);
      ADD_FAILURE() << "accepted " << flag;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("--x: expected ", 0), 0u)
          << e.what();
    }
  };
  const auto as_int = [](const CliArgs& a) { return a.get_int("x", 0); };
  const auto as_double = [](const CliArgs& a) { return a.get_double("x", 0); };
  const auto as_list = [](const CliArgs& a) {
    return a.get_int_list("x", {}).size();
  };
  for (const char* flag : {"--x=5x", "--x=1e6", "--x=", "--x= 5", "--x=2.5",
                           "--x", "--x=99999999999999999999"}) {
    rejects(flag, as_int);
  }
  for (const char* flag : {"--x=4.17abc", "--x=", "--x=1e", "--x"}) {
    rejects(flag, as_double);
  }
  for (const char* flag : {"--x=10,5x", "--x=1e6,2", "--x=3,four"}) {
    rejects(flag, as_list);
  }
  EXPECT_EQ(parse({"prog", "--x=-7"}).get_int("x", 0), -7);
  EXPECT_DOUBLE_EQ(parse({"prog", "--x=1e-3"}).get_double("x", 0), 1e-3);
}

TEST(CliArgs, CountListParsesValidValues) {
  const auto ps =
      parse({"prog", "--p=1,10,4294967295"}).get_count_list("p", {7});
  EXPECT_EQ(ps, (std::vector<std::uint32_t>{1, 10, 4294967295u}));
  EXPECT_EQ(parse({"prog"}).get_count_list("p", {7}),
            std::vector<std::uint32_t>{7});
  EXPECT_EQ(parse({"prog", "--n=30"}).get_count("n", 100), 30u);
  EXPECT_EQ(parse({"prog"}).get_count("n", 100), 100u);
}

// A size below 1 made -nan rows (--reps=0); a negative one wrapped to
// about 2^32. The error names the flag and the value.
TEST(CliArgs, CountRejectsNonPositiveWithValueInMessage) {
  const auto message = [](const auto& get) {
    try {
      get();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message([] { parse({"prog", "--reps=0"}).get_count("reps", 1); }),
            "--reps: must be an integer in [1, 2^32), got 0");
  EXPECT_EQ(message([] {
              parse({"prog", "--p=10,-3"}).get_count_list("p", {});
            }),
            "--p: must be an integer in [1, 2^32), got -3");
  EXPECT_EQ(message([] { parse({"prog", "--p="}).get_count_list("p", {1}); }),
            "--p: expected at least one value");
}

TEST(CliArgs, CountRejectsBeyondUint32WithValueInMessage) {
  EXPECT_THROW(parse({"prog", "--n=4294967296"}).get_count("n", 1),
               std::invalid_argument);
  try {
    parse({"prog", "--p=4,4294967296"}).get_count_list("p", {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("4294967296"), std::string::npos);
  }
}

TEST(CliArgs, ThreadCountAcceptsZeroAndRejectsNegative) {
  EXPECT_EQ(parse({"prog", "--jobs=0"}).get_thread_count("jobs", 3), 0u);
  EXPECT_EQ(parse({"prog", "--jobs=4"}).get_thread_count("jobs", 0), 4u);
  EXPECT_EQ(parse({"prog"}).get_thread_count("jobs", 0), 0u);
  try {
    parse({"prog", "--jobs=-1"}).get_thread_count("jobs", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--jobs: must be an integer in [0, 2^32), got -1");
  }
  EXPECT_THROW(parse({"prog", "--jobs=4294967296"}).get_thread_count("jobs", 0),
               std::invalid_argument);
}

TEST(CliArgs, RejectsPositionalArguments) {
  EXPECT_THROW(parse({"prog", "positional"}), std::invalid_argument);
}

TEST(CliArgs, RecordsProgramName) {
  EXPECT_EQ(parse({"myprog"}).program(), "myprog");
}

TEST(CliArgs, ListDropsEmptyItems) {
  const CliArgs args = parse({"prog", "--s=a,,b,", "--e="});
  EXPECT_EQ(args.get_list("s"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(args.get_list("e").empty());
  EXPECT_TRUE(args.get_list("absent").empty());
}

// Every getter, has() included, marks its flag read, whether or not
// the flag was given; reject_unread names each given flag no getter
// asked about.
TEST(CliArgs, RejectUnreadNamesEveryUnreadFlag) {
  const CliArgs args =
      parse({"prog", "--n=4", "--stratgy=x", "--quiet", "--rep=1"});
  EXPECT_EQ(args.get_count("n", 1), 4u);
  EXPECT_FALSE(args.has("strategy"));
  try {
    args.reject_unread();
    FAIL() << "unread flags accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unrecognized flags --quiet --rep --stratgy");
  }
  EXPECT_TRUE(args.get_bool("quiet", false));
  EXPECT_EQ(args.get("rep", ""), "1");
  EXPECT_TRUE(args.has("stratgy"));
  EXPECT_NO_THROW(args.reject_unread());
}

}  // namespace
}  // namespace hetsched
