#include <gtest/gtest.h>

#include <deque>
#include <limits>

#include "outer/outer_factory.hpp"
#include "sim/engine.hpp"

namespace hetsched {
namespace {

/// The comm-timed link these tests assume: a 100-blocks-per-time-unit
/// uplink (CommModel{}) with lookahead 4, engine seed 1.
SimConfig timed_link() {
  SimConfig config;
  config.seed = 1;
  config.comm = CommModel{};
  config.lookahead = 4;
  return config;
}

/// Hands out one task and `blocks` block transfers per request.
class UnitStrategy final : public Strategy {
 public:
  UnitStrategy(std::uint64_t tasks, std::uint32_t workers,
               std::uint32_t blocks_per_task)
      : total_(tasks), remaining_(tasks), workers_(workers),
        blocks_(blocks_per_task) {}

  std::string name() const override { return "Unit"; }
  std::uint64_t total_tasks() const override { return total_; }
  std::uint64_t unassigned_tasks() const override { return remaining_; }
  std::uint32_t workers() const override { return workers_; }

  using Strategy::on_request;
  bool on_request(std::uint32_t, Assignment& out) override {
    out.clear();
    if (remaining_ == 0) return false;
    --remaining_;
    out.tasks.push_back(remaining_);
    for (std::uint32_t b = 0; b < blocks_; ++b) {
      out.blocks.push_back(BlockRef{Operand::kVecA, b, 0});
    }
    return true;
  }

 private:
  std::uint64_t total_;
  std::uint64_t remaining_;
  std::uint32_t workers_;
  std::uint32_t blocks_;
};

TEST(EngineTimed, ComputeBoundWhenBandwidthHuge) {
  UnitStrategy strategy(100, 1, 1);
  Platform platform({1.0});
  SimConfig config = timed_link();
  config.comm.bandwidth = 1e9;
  config.lookahead = 4;
  const SimResult result = simulate(strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 100u);
  // 100 tasks at speed 1 => makespan ~100 (communication invisible).
  EXPECT_NEAR(result.makespan, 100.0, 0.01);
  EXPECT_LT(result.starvation_fraction(), 1e-6);
}

TEST(EngineTimed, CommunicationBoundWhenBandwidthTiny) {
  // 1 block per task at bandwidth 0.1 => 10 time units per task through
  // the link; compute takes 1. Makespan is dominated by the link.
  UnitStrategy strategy(20, 1, 1);
  Platform platform({1.0});
  SimConfig config = timed_link();
  config.comm.bandwidth = 0.1;
  config.lookahead = 4;
  const SimResult result = simulate(strategy, platform, config);
  EXPECT_GT(result.makespan, 0.9 * 200.0);
  EXPECT_GT(result.starvation_fraction(), 0.5);
}

TEST(EngineTimed, LinkBusyTimeMatchesVolume) {
  UnitStrategy strategy(50, 2, 2);
  Platform platform({1.0, 1.0});
  SimConfig config = timed_link();
  config.comm.bandwidth = 10.0;
  config.comm.latency = 0.0;
  const SimResult result = simulate(strategy, platform, config);
  // Every task carries 2 blocks: 100 blocks at 10 blocks/unit = 10 units.
  EXPECT_NEAR(result.link_busy_time, 10.0, 1e-9);
  EXPECT_EQ(result.total_blocks, 100u);
}

TEST(EngineTimed, LatencyChargesPerMessage) {
  UnitStrategy strategy(10, 1, 0);
  Platform platform({1.0});
  SimConfig config = timed_link();
  config.comm.bandwidth = 1e9;
  config.comm.latency = 0.5;
  const SimResult result = simulate(strategy, platform, config);
  // 10 messages, 0.5 each.
  EXPECT_NEAR(result.link_busy_time, 5.0, 1e-9);
}

TEST(EngineTimed, LookaheadOneSerializesCommAndCompute) {
  // With lookahead 1 the worker only requests when idle: makespan is
  // the sum of transfer and compute times.
  UnitStrategy s1(20, 1, 1);
  UnitStrategy s4(20, 1, 1);
  Platform platform({1.0});
  SimConfig config = timed_link();
  config.comm.bandwidth = 1.0;  // 1 block = 1 compute time
  config.lookahead = 1;
  const SimResult serial = simulate(s1, platform, config);
  EXPECT_NEAR(serial.makespan, 40.0, 0.01);  // 20 * (1 + 1)

  config.lookahead = 4;
  const SimResult overlapped = simulate(s4, platform, config);
  // Pipelined: ~21 (one transfer exposed, rest hidden).
  EXPECT_LT(overlapped.makespan, 23.0);
  EXPECT_GT(serial.makespan, 1.7 * overlapped.makespan);
}

TEST(EngineTimed, ModestLookaheadHidesCommunication) {
  // A small prefetch depth hides the link time (vs lookahead 1, which
  // serializes); *much* deeper queues are not monotonically better —
  // early-bound tasks hoard at workers and hurt end-game balance, which
  // is why the paper's "few blocks in advance" is the right regime.
  Platform platform({1.0, 2.0, 3.0});
  auto run = [&](std::uint32_t la) {
    UnitStrategy strategy(300, 3, 1);
    SimConfig config = timed_link();
    config.comm.bandwidth = 8.0;
    config.lookahead = la;
    const SimResult r = simulate(strategy, platform, config);
    EXPECT_EQ(r.total_tasks_done, 300u);
    return r.makespan;
  };
  const double serial = run(1);
  const double shallow = run(4);
  EXPECT_LE(shallow, serial + 1e-9);
}

TEST(EngineTimed, MatchesUntimedEngineVolumeForSameStrategySeed) {
  // Timing changes *when* requests happen, not what a request costs:
  // with one worker the request sequence is identical, so the volume
  // must match the untimed engine exactly.
  auto a = make_outer_strategy("DynamicOuter", OuterConfig{20}, 1, 5);
  auto b = make_outer_strategy("DynamicOuter", OuterConfig{20}, 1, 5);
  Platform platform({10.0});
  const SimResult untimed = simulate(*a, platform);
  SimConfig config = timed_link();
  config.comm.bandwidth = 50.0;
  const SimResult timed = simulate(*b, platform, config);
  EXPECT_EQ(timed.total_blocks, untimed.total_blocks);
  EXPECT_EQ(timed.total_tasks_done, untimed.total_tasks_done);
}

TEST(EngineTimed, WorksWithRealOuterStrategies) {
  for (const auto& name : outer_strategy_names()) {
    OuterStrategyOptions options;
    options.phase2_fraction = 0.05;
    auto strategy = make_outer_strategy(name, OuterConfig{16}, 4, 9, options);
    Platform platform({10.0, 20.0, 40.0, 80.0});
    SimConfig config = timed_link();
    config.comm.bandwidth = 200.0;
    config.lookahead = 4;
    const SimResult result = simulate(*strategy, platform, config);
    EXPECT_EQ(result.total_tasks_done, 256u) << name;
    EXPECT_GT(result.total_blocks, 0u) << name;
  }
}

TEST(EngineTimed, RejectsBadConfig) {
  UnitStrategy strategy(10, 1, 1);
  Platform platform({1.0});
  SimConfig config = timed_link();
  config.lookahead = 0;
  EXPECT_THROW(simulate(strategy, platform, config),
               std::invalid_argument);
  config.lookahead = 1;
  config.comm.bandwidth = 0.0;
  EXPECT_THROW(simulate(strategy, platform, config),
               std::invalid_argument);
  config.comm.bandwidth = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate(strategy, platform, config),
               std::invalid_argument);
  // `latency < 0` is false for NaN; such a run would land every
  // message at time NaN and report makespan 0.
  config.comm.bandwidth = 100.0;
  config.comm.latency = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate(strategy, platform, config),
               std::invalid_argument);
  config.comm.latency = std::numeric_limits<double>::infinity();
  EXPECT_THROW(simulate(strategy, platform, config),
               std::invalid_argument);
  // An infinite bandwidth is the free link, and valid.
  config.comm = CommModel::free();
  EXPECT_EQ(simulate(strategy, platform, config).total_tasks_done, 10u);
}

TEST(EngineTimed, FreeLinkPrefetchesWithoutLinkTime) {
  EXPECT_TRUE(CommModel::free().is_free());
  EXPECT_FALSE(CommModel{}.is_free());
  EXPECT_FALSE(
      (CommModel{std::numeric_limits<double>::infinity(), 0.5}.is_free()));
  // A deeper lookahead on the free link queues work ahead without any
  // message events or link time.
  UnitStrategy strategy(100, 1, 1);
  Platform platform({1.0});
  SimConfig config;
  config.lookahead = 4;
  const SimResult result = simulate(strategy, platform, config);
  EXPECT_EQ(result.total_tasks_done, 100u);
  EXPECT_EQ(result.total_blocks, 100u);
  EXPECT_EQ(result.makespan, 100.0);
  EXPECT_EQ(result.link_busy_time, 0.0);
  EXPECT_EQ(result.workers[0].messages_received, 0u);
  EXPECT_EQ(result.workers[0].starved_time, 0.0);
}

TEST(EngineTimed, MismatchedWorkerCountThrows) {
  UnitStrategy strategy(10, 2, 1);
  Platform platform({1.0});
  EXPECT_THROW(simulate(strategy, platform, timed_link()),
               std::invalid_argument);
}

TEST(EngineTimed, SharedLinkSlowsManyWorkers) {
  // Total bandwidth fixed: more workers contend for the same link, so
  // per-worker starvation grows.
  auto starvation = [&](std::uint32_t p) {
    UnitStrategy strategy(400, p, 2);
    Platform platform(std::vector<double>(p, 1.0));
    SimConfig config = timed_link();
    config.comm.bandwidth = 4.0;
    config.lookahead = 2;
    return simulate(strategy, platform, config).starvation_fraction();
  };
  EXPECT_LT(starvation(1), starvation(16) + 1e-12);
}

}  // namespace
}  // namespace hetsched
