// Golden determinism test for the engine.
//
// The expected values below were captured from the standalone
// pre-EventCore implementation (commit 0ac23f0) at pinned seeds and are
// compared bit-for-bit (hexfloat literals, EXPECT_EQ on doubles). They
// pin the refactoring invariant "all existing flat-engine outputs stay
// bit-identical": any change to event ordering, tie-breaking, RNG
// stream derivation ("engine.perturb"), fault sequencing or stats
// accounting in sim/event_core.* or sim/engine.* shows up here as an
// exact-value mismatch. Do not loosen these to EXPECT_NEAR — a
// one-ulp drift means the event schedule changed.
//
// The comm-timed cases (finite link, latency, lookahead 4, perturbation,
// one crash and one straggler) pin the serial-uplink path the same way;
// their values were captured from the separate comm-timed engine
// before it became the timed-link case of `simulate`
// ("engine_timed.perturb" stream).
//
// The unperturbed timed cases (lookahead 1 and 4 per kernel, each with
// one crash and one straggler, plus a RandomOuter run on a link whose
// latency dwarfs every task) pin the timed link without a trace or
// perturbation, i.e. the path that never observes single completions.
// Their speeds are pairwise incommensurate so that no two workers
// finish at exactly the same time. Values captured from the per-task
// timed engine (commit 18d6c76) at the pinned seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "matmul/matmul_factory.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace hetsched {
namespace {

struct GoldenWorker {
  std::uint64_t tasks;
  std::uint64_t blocks;
  double busy;
  double finish;
  double speed;
};

void expect_matches(const SimResult& result, double makespan,
                    std::uint64_t total_blocks, std::uint64_t total_tasks,
                    std::uint64_t requeued, std::uint32_t crashed,
                    const std::vector<GoldenWorker>& golden) {
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_EQ(result.total_blocks, total_blocks);
  EXPECT_EQ(result.total_tasks_done, total_tasks);
  EXPECT_EQ(result.requeued_tasks, requeued);
  EXPECT_EQ(result.crashed_workers, crashed);
  ASSERT_EQ(result.workers.size(), golden.size());
  for (std::size_t k = 0; k < golden.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(result.workers[k].tasks_done, golden[k].tasks);
    EXPECT_EQ(result.workers[k].blocks_received, golden[k].blocks);
    EXPECT_EQ(result.workers[k].busy_time, golden[k].busy);
    EXPECT_EQ(result.workers[k].finish_time, golden[k].finish);
    EXPECT_EQ(result.workers[k].final_speed, golden[k].speed);
    // Flat engine: timed-only fields are identically zero.
    EXPECT_EQ(result.workers[k].messages_received, 0u);
    EXPECT_EQ(result.workers[k].starved_time, 0.0);
  }
  EXPECT_EQ(result.link_busy_time, 0.0);
}

struct TimedGoldenWorker {
  std::uint64_t tasks;
  std::uint64_t blocks;
  std::uint64_t messages;
  double busy;
  double finish;
  double starved;
  double speed;
};

void expect_timed_matches(const SimResult& result, double makespan,
                          std::uint64_t total_blocks,
                          std::uint64_t total_tasks, std::uint64_t requeued,
                          double link_busy,
                          const std::vector<TimedGoldenWorker>& golden) {
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_EQ(result.total_blocks, total_blocks);
  EXPECT_EQ(result.total_tasks_done, total_tasks);
  EXPECT_EQ(result.requeued_tasks, requeued);
  EXPECT_EQ(result.crashed_workers, 1u);
  EXPECT_EQ(result.link_busy_time, link_busy);
  ASSERT_EQ(result.workers.size(), golden.size());
  for (std::size_t k = 0; k < golden.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(result.workers[k].tasks_done, golden[k].tasks);
    EXPECT_EQ(result.workers[k].blocks_received, golden[k].blocks);
    EXPECT_EQ(result.workers[k].messages_received, golden[k].messages);
    EXPECT_EQ(result.workers[k].busy_time, golden[k].busy);
    EXPECT_EQ(result.workers[k].finish_time, golden[k].finish);
    EXPECT_EQ(result.workers[k].starved_time, golden[k].starved);
    EXPECT_EQ(result.workers[k].final_speed, golden[k].speed);
  }
}

TEST(EngineGolden, PerturbedTwoPhaseOuterIsBitIdentical) {
  // Re-derived when DynamicOuter switched to the word-parallel frontier
  // and the strict ("fewer than") phase-2 boundary: each data-aware
  // batch is the same task *set* as before but enumerated in ascending
  // index order, and the request arriving exactly at the threshold is
  // now served data-aware, so completion interleaving (hence the
  // perturbed speeds and per-worker tallies) shifted. The RNG stream
  // and its consumption are unchanged. Block counts re-derived once
  // more for the lazy-dense pool: phase-2 pops draw the same positions
  // from an ascending rebuild instead of the swap-scrambled array, so
  // the popped task *identities* (and the blocks they fetch) differ
  // while every duration, time and task tally is bit-identical.
  // Values captured from the first lazy-pool build at the same pinned
  // seeds.
  OuterStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{30},
                                      5, 12345, options);
  Platform platform({17.0, 23.0, 42.0, 55.0, 80.0});
  SimConfig config;
  config.seed = 12345;
  config.perturbation = PerturbationModel(5.0);
  const SimResult result = simulate(*strategy, platform, config);
  expect_matches(
      result, 0x1.17fb0d315c3b4p+2, 221, 900, 0, 0,
      {{78, 31, 0x1.0272d1416ded7p+2, 0x1.0272d1416ded7p+2,
        0x1.88d9a7346021p+4},
       {87, 35, 0x1.00f56459bfe42p+2, 0x1.00f56459bfe42p+2,
        0x1.429b76852157cp+4},
       {231, 50, 0x1.01162bebfa27p+2, 0x1.01162bebfa27p+2,
        0x1.80bd9f2b4f5b2p+5},
       {242, 50, 0x1.17fb0d315c3b4p+2, 0x1.17fb0d315c3b4p+2,
        0x1.7c9ffca768a74p+5},
       {262, 55, 0x1.0089d8e8c5cefp+2, 0x1.0089d8e8c5cefp+2,
        0x1.300f9b94ffcdbp+6}});
}

TEST(EngineGolden, FaultedRandomMatmulIsBitIdentical) {
  auto strategy = make_matmul_strategy("RandomMatrix", MatmulConfig{8}, 4, 777);
  Platform platform({10.0, 20.0, 40.0, 80.0});
  SimConfig config;
  config.seed = 777;
  // Worker 1 straggles to a quarter speed at t=0.2 (faults are pushed in
  // declaration order, so the later crash still draws the same event
  // sequence numbers as the original engine did).
  config.faults = {WorkerFault{0.4, 3, 0.0}, WorkerFault{0.2, 1, 0.25}};
  const SimResult result = simulate(*strategy, platform, config);
  expect_matches(
      result, 0x1.199999999999ap+3, 525, 512, 1, 1,
      {{87, 152, 0x1.166666666665ep+3, 0x1.166666666665ep+3, 0x1.4p+3},
       {47, 103, 0x1.199999999999ap+3, 0x1.199999999999ap+3, 0x1.4p+2},
       {347, 192, 0x1.15999999999b9p+3, 0x1.15999999999b9p+3, 0x1.4p+5},
       {31, 78, 0x1.8ccccccccccdp-2, 0x1.8ccccccccccdp-2, 0x1.4p+6}});
}

TEST(EngineGolden, TimedFaultedPerturbedTwoPhaseOuterIsBitIdentical) {
  OuterStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{30},
                                      5, 12345, options);
  Platform platform({17.0, 23.0, 42.0, 55.0, 80.0});
  SimConfig config;
  config.seed = 12345;
  config.comm = CommModel{150.0, 0.002};
  config.lookahead = 4;
  config.perturbation = PerturbationModel(5.0);
  // Worker 1 halves its speed at t=1, worker 3 crashes at t=2; both
  // fire mid-run (requeued > 0, worker 1's final speed ~ 23/2).
  config.faults = {WorkerFault{2.0, 3, 0.0}, WorkerFault{1.0, 1, 0.5}};
  const SimResult result = simulate(*strategy, platform, config);
  expect_timed_matches(
      result, 0x1.7e19b86c810eap+2, 201, 900, 9, 0x1.9a1cac083126cp+0,
      {{97, 32, 18, 0x1.748469942db06p+2, 0x1.76a3f9c838c5bp+2,
        0x1.24578abdf1248p-6, 0x1.18a1c56297929p+4},
       {76, 32, 17, 0x1.7a0384d686759p+2, 0x1.7e19b86c810eap+2,
        0x1.0fe121b0285dep-5, 0x1.667f4ecff8e34p+3},
       {281, 59, 50, 0x1.66377160c414p+2, 0x1.6d13944cdb874p+2,
        0x1.f53c7818035fcp-5, 0x1.86f8df64b8cd7p+5},
       {123, 24, 12, 0x1.d6a05f4b1e1b7p+0, 0x1.fb2c81ce45d08p+0,
        0x1.4d897ee55722ep-4, 0x1.990102562ae88p+5},
       {323, 54, 34, 0x1.602606db3aef3p+2, 0x1.6bbfbd6d72bcfp+2,
        0x1.ac66d0ed86302p-4, 0x1.d4f2664ef6c71p+5}});
}

TEST(EngineGolden, TimedFaultedPerturbedRandomMatmulIsBitIdentical) {
  auto strategy = make_matmul_strategy("RandomMatrix", MatmulConfig{8}, 4, 777);
  Platform platform({10.0, 20.0, 40.0, 80.0});
  SimConfig config;
  config.seed = 777;
  config.comm = CommModel{400.0, 0.003};
  config.lookahead = 4;
  config.perturbation = PerturbationModel(5.0);
  config.faults = {WorkerFault{0.4, 3, 0.0}, WorkerFault{0.2, 1, 0.25}};
  const SimResult result = simulate(*strategy, platform, config);
  expect_timed_matches(
      result, 0x1.df3ef7c1dc57ep+2, 450, 512, 1, 0x1.54fdf3b645a2ep+1,
      {{66, 133, 66, 0x1.d640d6da57d74p+2, 0x1.d6ecdf0b7ec0cp+2, 0x0p+0,
        0x1.142ad97721f58p+3},
       {41, 90, 41, 0x1.dde6e75f8e84ep+2, 0x1.df3ef7c1dc57ep+2, 0x0p+0,
        0x1.7ac97bf64f23fp+2},
       {393, 192, 393, 0x1.b5696aba79e5cp+2, 0x1.bd81b382dccd9p+2,
        0x1.850c0d3b8adc6p-4, 0x1.3286fb221fb9ep+6},
       {12, 35, 12, 0x1.29821ed432ce7p-3, 0x1.90c2312dce84fp-2,
        0x1.a1fe2af3f57eep-3, 0x1.4493c072aa733p+6}});
}


// The unperturbed timed goldens share one fault script per kernel:
// worker 3 crashes and worker 1 straggles mid-run.
SimResult run_timed_outer(std::uint32_t lookahead) {
  OuterStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_outer_strategy("DynamicOuter2Phases", OuterConfig{30},
                                      5, 12345, options);
  Platform platform({17.0, 23.0, 42.0, 55.0, 80.0});
  SimConfig config;
  config.seed = 12345;
  config.comm = CommModel{150.0, 0.002};
  config.lookahead = lookahead;
  config.faults = {WorkerFault{2.0, 3, 0.0}, WorkerFault{1.0, 1, 0.5}};
  return simulate(*strategy, platform, config);
}

SimResult run_timed_matmul(std::uint32_t lookahead) {
  MatmulStrategyOptions options;
  options.phase2_fraction = 0.05;
  auto strategy = make_matmul_strategy("DynamicMatrix2Phases",
                                       MatmulConfig{8}, 4, 777, options);
  Platform platform({13.0, 29.0, 41.0, 83.0});
  SimConfig config;
  config.seed = 777;
  config.comm = CommModel{400.0, 0.003};
  config.lookahead = lookahead;
  config.faults = {WorkerFault{0.4, 3, 0.0}, WorkerFault{0.2, 1, 0.25}};
  return simulate(*strategy, platform, config);
}

TEST(EngineGolden, TimedFaultedTwoPhaseOuterLookaheadOneIsBitIdentical) {
  expect_timed_matches(
      run_timed_outer(1), 0x1.9b783ba497c3bp+2, 193, 900, 11,
      0x1.8756b2dbd1945p+0,
      {{92, 42, 23, 0x1.5a5a5a5a5a598p+2, 0x1.731f6d8e0fc45p+2,
        0x1.7c9da8a68469ep-2, 0x1.1p+4},
       {82, 22, 11, 0x1.8de9bd37a6f56p+2, 0x1.9b783ba497c3bp+2,
        0x1.7301a34ad0bacp-3, 0x1.7p+3},
       {223, 48, 25, 0x1.53cf3cf3cf3bfp+2, 0x1.70c0fd902c35ap+2,
        0x1.a0016a0758d2ep-2, 0x1.5p+5},
       {92, 22, 11, 0x1.ac37dac37dab3p+0, 0x1.fd90d8c504a3dp+0,
        0x1.0695cdb2d2d87p-2, 0x1.b8p+5},
       {411, 59, 51, 0x1.48cccccccccf9p+2, 0x1.7136cc9b3160dp+2,
        0x1.1c0f23ff16e01p-1, 0x1.4p+6}});
}

TEST(EngineGolden, TimedFaultedTwoPhaseOuterLookaheadFourIsBitIdentical) {
  expect_timed_matches(
      run_timed_outer(4), 0x1.62b2071069e75p+2, 201, 900, 7,
      0x1.978d4fdf3b649p+0,
      {{93, 36, 24, 0x1.5e1e1e1e1e1d4p+2, 0x1.603dae522932ap+2,
        0x1.24578abdf1248p-6, 0x1.1p+4},
       {74, 31, 20, 0x1.5e9bd37a6f4e3p+2, 0x1.62b2071069e75p+2,
        0x1.0fe121b0285dep-5, 0x1.7p+3},
       {221, 52, 26, 0x1.50c30c30c30b3p+2, 0x1.576c8b43958p+2,
        0x1.dbea8b7584258p-5, 0x1.5p+5},
       {102, 22, 11, 0x1.dac37dac37d97p+0, 0x1.ff19a18b33b0cp+0,
        0x1.4a2994a2994a4p-4, 0x1.b8p+5},
       {410, 60, 45, 0x1.480000000002cp+2, 0x1.53c4c1a3cf71bp+2,
        0x1.b72995536e77p-4, 0x1.4p+6}});
}

TEST(EngineGolden, TimedFaultedTwoPhaseMatmulLookaheadOneIsBitIdentical) {
  expect_timed_matches(
      run_timed_matmul(1), 0x1.33b959b29838fp+3, 369, 512, 3,
      0x1.f89374bc6a7fp-1,
      {{92, 75, 5, 0x1.c4ec4ec4ec4e4p+2, 0x1.d4a4a12cd57bcp+2,
        0x1.e18946d84881ap-3, 0x1.ap+3},
       {71, 75, 5, 0x1.2c234f72c234fp+3, 0x1.33b959b29838fp+3,
        0x1.ba8083abc6a0ap-3, 0x1.dp+2},
       {325, 192, 8, 0x1.fb512bb512bbcp+2, 0x1.10ab3de309764p+3,
        0x1.2009bbec5bad1p-1, 0x1.48p+5},
       {24, 27, 3, 0x1.2818acb90f6cp-2, 0x1.96b03a08eea73p-2,
        0x1.0e5604189374cp-4, 0x1.4cp+6}});
}

TEST(EngineGolden, TimedFaultedTwoPhaseMatmulLookaheadFourIsBitIdentical) {
  expect_timed_matches(
      run_timed_matmul(4), 0x1.153eb053eb04ap+3, 342, 512, 6,
      0x1.d47ae147ae149p-1,
      {{88, 75, 5, 0x1.b13b13b13b134p+2, 0x1.b1e71be261fcbp+2, 0x0p+0,
        0x1.ap+3},
       {55, 48, 4, 0x1.c469ee58469f3p+2, 0x1.c828ad71c51a8p+2,
        0x1.33575b98542dfp-5, 0x1.dp+2},
       {348, 192, 8, 0x1.0f9c18f9c18f3p+3, 0x1.153eb053eb04ap+3,
        0x1.2822c41bc5db9p-3, 0x1.48p+5},
       {21, 27, 3, 0x1.03159721ed7e9p-2, 0x1.8ea9b66b88472p-2,
        0x1.82484bff81aa4p-4, 0x1.4cp+6}});
}

TEST(EngineGolden, TimedSaturatedLinkRandomOuterIsBitIdentical) {
  // Latency 0.5 against tasks of at most 1/11: every completion falls
  // while the worker's next request is still on the wire.
  auto strategy = make_outer_strategy("RandomOuter", OuterConfig{12}, 4, 99);
  Platform platform({11.0, 23.0, 47.0, 89.0});
  SimConfig config;
  config.seed = 99;
  config.comm = CommModel{1000.0, 0.5};
  config.lookahead = 4;
  config.faults = {WorkerFault{10.0, 2, 0.0}, WorkerFault{5.0, 0, 0.5}};
  const SimResult result = simulate(*strategy, platform, config);
  expect_timed_matches(
      result, 0x1.230e265a7bff3p+6, 82, 144, 1, 0x1.2253f7ced9167p+6,
      {{47, 24, 47, 0x1.08ba2e8ba2e89p+3, 0x1.230e265a7bff3p+6,
        0x1.ffe9a87e9a87cp+5, 0x1.6p+2},
       {46, 24, 46, 0x1.ffffffffffffbp+0, 0x1.1e807d5f8b2cbp+6,
        0x1.127c64cc16708p+6, 0x1.7p+4},
       {5, 11, 5, 0x1.b3bea3677d46dp-4, 0x1.31bca245752bfp+3,
        0x1.fc47fc2a5ab8ep+2, 0x1.78p+5},
       {46, 23, 46, 0x1.08a114228450ep-1, 0x1.205f793f071c3p+6,
        0x1.164605efd89aep+6, 0x1.64p+6}});
}

}  // namespace
}  // namespace hetsched
