#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analyze.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Sampler, EmitsOneRowPerElapsedDeadline) {
  TimeSeriesSampler sampler(1.0);
  double v = 10.0;
  sampler.add_channel("v", [&v] { return v; });
  sampler.advance_to(0.5);  // deadline t=0
  v = 20.0;
  sampler.advance_to(2.5);  // deadlines t=1, t=2
  ASSERT_EQ(sampler.num_samples(), 3u);
  EXPECT_EQ(sampler.sample_time(0), 0.0);
  EXPECT_EQ(sampler.sample_value(0, 0), 10.0);
  EXPECT_EQ(sampler.sample_time(1), 1.0);
  EXPECT_EQ(sampler.sample_time(2), 2.0);
  EXPECT_EQ(sampler.sample_value(2, 0), 20.0);
  // Idempotent: advancing to the same time adds nothing.
  sampler.advance_to(2.5);
  EXPECT_EQ(sampler.num_samples(), 3u);
}

TEST(Sampler, FinishAppendsFinalRowAtEndTime) {
  TimeSeriesSampler sampler(1.0);
  sampler.add_channel("v", [] { return 1.0; });
  sampler.advance_to(1.5);
  sampler.finish(1.75);
  ASSERT_EQ(sampler.num_samples(), 3u);  // t = 0, 1, 1.75
  EXPECT_EQ(sampler.sample_time(2), 1.75);
  // finish at an exact deadline does not duplicate the row.
  TimeSeriesSampler exact(1.0);
  exact.add_channel("v", [] { return 1.0; });
  exact.finish(2.0);
  ASSERT_EQ(exact.num_samples(), 3u);  // t = 0, 1, 2
  EXPECT_EQ(exact.sample_time(2), 2.0);
}

TEST(Sampler, NoChannelsMeansNoRowsAndNoThrow) {
  TimeSeriesSampler sampler;  // no interval either
  sampler.advance_to(100.0);
  sampler.finish(200.0);
  EXPECT_EQ(sampler.num_samples(), 0u);
}

TEST(Sampler, MissingIntervalThrowsOnceChannelsExist) {
  TimeSeriesSampler sampler;
  sampler.add_channel("v", [] { return 0.0; });
  EXPECT_THROW(sampler.advance_to(1.0), std::logic_error);
  sampler.set_interval(0.5);
  sampler.advance_to(1.0);
  EXPECT_EQ(sampler.num_samples(), 3u);  // t = 0, 0.5, 1.0
}

TEST(Sampler, MidSeriesReconfigurationThrows) {
  TimeSeriesSampler sampler(1.0);
  sampler.add_channel("v", [] { return 0.0; });
  EXPECT_THROW(sampler.add_channel("", nullptr), std::invalid_argument);
  sampler.advance_to(0.0);
  EXPECT_THROW(sampler.set_interval(2.0), std::logic_error);
  EXPECT_THROW(sampler.add_channel("w", [] { return 1.0; }),
               std::logic_error);
}

TEST(Sampler, ProbesRunInRegistrationOrder) {
  TimeSeriesSampler sampler(1.0);
  int order = 0;
  int first = -1, second = -1;
  sampler.add_channel("a", [&] { first = order++; return 0.0; });
  sampler.add_channel("b", [&] { second = order++; return 0.0; });
  sampler.advance_to(0.0);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(Sampler, SeriesAndTimesMatchFlatAccessors) {
  TimeSeriesSampler sampler(0.5);
  double x = 0.0;
  sampler.add_channel("x", [&x] { return x; });
  sampler.add_channel("2x", [&x] { return 2.0 * x; });
  for (int i = 0; i < 4; ++i) {
    x = static_cast<double>(i);
    sampler.advance_to(0.5 * i);
  }
  const std::vector<double> xs = sampler.series("x");
  const std::vector<double> doubled = sampler.series("2x");
  ASSERT_EQ(sampler.times().size(), sampler.num_samples());
  ASSERT_EQ(xs.size(), sampler.num_samples());
  ASSERT_EQ(doubled.size(), sampler.num_samples());
  for (std::size_t row = 0; row < sampler.num_samples(); ++row) {
    EXPECT_EQ(sampler.times()[row], sampler.sample_time(row));
    EXPECT_EQ(xs[row], sampler.sample_value(row, 0));
    EXPECT_EQ(doubled[row], sampler.sample_value(row, 1));
  }
  EXPECT_TRUE(sampler.series("absent").empty());
}

// Golden round-trip: a small deterministic series must survive the
// event-file writer's sample records with every time and value intact.
TEST(SamplerExport, JsonlRoundTrip) {
  TimeSeriesSampler sampler(0.25);
  double v = 0.0;
  sampler.add_channel("up", [&v] { return v; });
  sampler.add_channel("down", [&v] { return 10.0 - v; });
  for (int i = 0; i <= 4; ++i) {
    v = static_cast<double>(i);
    sampler.advance_to(0.25 * i);
  }
  std::ostringstream out;
  write_trace_jsonl(out, RecordingTrace{}, TraceMeta{}, &sampler);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u + sampler.num_samples());

  // The meta record names the channels the sample rows are parallel to.
  EXPECT_EQ(lines[0].find("{\"type\":\"meta\","), 0u) << lines[0];
  EXPECT_NE(lines[0].find("\"channels\":[\"up\",\"down\"]"),
            std::string::npos)
      << lines[0];

  for (std::size_t row = 0; row < sampler.num_samples(); ++row) {
    const std::string& line = lines[row + 1];
    EXPECT_EQ(line.find("{\"type\":\"sample\",\"t\":"), 0u) << line;
    // Round-trip the numbers: t then [v0, v1].
    double t = -1.0, v0 = -1.0, v1 = -1.0;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "{\"type\":\"sample\",\"t\":%lf,\"v\":[%lf,%lf]}",
                          &t, &v0, &v1),
              3)
        << line;
    EXPECT_DOUBLE_EQ(t, sampler.sample_time(row));
    EXPECT_DOUBLE_EQ(v0, sampler.sample_value(row, 0));
    EXPECT_DOUBLE_EQ(v1, sampler.sample_value(row, 1));
  }
}

// Trace truncation is surfaced in the event file's meta record so a
// series whose source recording hit the event cap can never masquerade
// as complete (docs/observability.md, "Bounding trace memory").
TEST(SamplerExport, DroppedEventsSurfaceInJsonlMeta) {
  TimeSeriesSampler sampler(1.0);
  double v = 0.0;
  sampler.add_channel("v", [&v] { return v; });
  sampler.advance_to(1.0);
  RecordingTrace recording(1);
  for (int i = 0; i < 8; ++i) recording.on_retire(0, 1.0);
  ASSERT_EQ(recording.dropped_events(), 7u);

  std::ostringstream jsonl;
  write_trace_jsonl(jsonl, recording, TraceMeta{}, &sampler);
  EXPECT_NE(jsonl.str().find("\"dropped_events\":7"), std::string::npos);
}

}  // namespace
}  // namespace hetsched
