// Golden determinism test for the DAG engine.
//
// The expected values below were captured from simulate_dag while the
// event core still started and timed each DAG task itself (commit
// 8240cf3), and are compared bit for bit (hexfloat literals, EXPECT_EQ
// on doubles): every policy on a clean run, on one with a crash and a
// straggler, and on the same with per-task speed perturbation. Any
// change to event ordering, busy-time accounting, the crash requeue,
// the "dag.perturb" draw order or the policies' choices shows up as an
// exact-value mismatch. Do not loosen these to EXPECT_NEAR.
//
// The speeds are pairwise incommensurate, so no two workers finish at
// exactly the same time; the crash hits worker 3 mid-task, so its
// in-flight task returns to the ready set.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "platform/platform.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

enum class Scenario { kClean, kFaulted, kFaultedPerturbed };

DagSimResult run(const std::string& policy_name, Scenario scenario,
                 TraceSink* trace = nullptr) {
  const CholeskyGraph ch = build_cholesky_graph(6);
  Platform platform({13.0, 29.0, 41.0, 83.0});
  DagSimConfig config;
  config.seed = 4242;
  if (scenario != Scenario::kClean) {
    config.faults = {WorkerFault{0.12, 3, 0.0}, WorkerFault{0.07, 1, 0.5}};
  }
  if (scenario == Scenario::kFaultedPerturbed) {
    config.perturbation = PerturbationModel(5.0);
  }
  auto policy = make_dag_policy(policy_name, 4242);
  return simulate_dag(ch.graph, platform, *policy, config, trace);
}

struct GoldenWorker {
  std::uint64_t tasks;
  std::uint64_t blocks;
  double busy;
  double finish;
  double speed;
};

void expect_matches(const DagSimResult& result, double makespan,
                    std::uint64_t transfers, std::uint64_t tasks,
                    std::uint64_t requeued, std::uint32_t crashed,
                    const std::vector<GoldenWorker>& golden,
                    const std::vector<DagTaskId>& order) {
  EXPECT_EQ(result.makespan, makespan);
  EXPECT_EQ(result.total_transfers, transfers);
  EXPECT_EQ(result.total_tasks_done, tasks);
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
    // No link: the timed-link fields are identically zero.
    EXPECT_EQ(result.workers[k].messages_received, 0u);
    EXPECT_EQ(result.workers[k].starved_time, 0.0);
  }
  EXPECT_EQ(result.completion_order, order);
}

TEST(DagGolden, RandomDagCleanIsBitIdentical) {
  expect_matches(
      run("RandomDag", Scenario::kClean), 0x1.63ea60fbd0dfdp-2, 83, 56, 0, 0,
      {{6, 10, 0x1.2df2df2df2df3p-2, 0x1.63ea60fbd0dfdp-2, 0x1.ap+3},
       {11, 20, 0x1.fa1d6cdfa1d6ep-3, 0x1.44217fe307045p-2, 0x1.dp+4},
       {14, 26, 0x1.e2dc9e2dc9e2fp-3, 0x1.56c98eeeb00dcp-2, 0x1.48p+5},
       {25, 27, 0x1.7a586aec7742dp-3, 0x1.4a4cae26e2014p-2, 0x1.4cp+6}},
      {0, 4, 2, 3, 5, 11, 17, 18, 13, 1, 15, 20, 12, 7, 16, 6, 8, 21, 10, 9,
       25, 24, 14, 22, 23, 35, 28, 19, 33, 29, 32, 27, 30, 26, 36, 31, 38,
       43, 37, 39, 41, 40, 34, 45, 46, 42, 47, 49, 48, 52, 51, 44, 50, 53,
       54, 55});
}

TEST(DagGolden, RandomDagFaultedIsBitIdentical) {
  expect_matches(
      run("RandomDag", Scenario::kFaulted), 0x1.c835382f1fe78p-2, 80, 56, 1, 1,
      {{8, 16, 0x1.96f96f96f96fap-2, 0x1.aff331269588ap-2, 0x1.ap+3},
       {12, 20, 0x1.8a4c8178a4c81p-2, 0x1.c835382f1fe78p-2, 0x1.dp+3},
       {23, 27, 0x1.831f3831f3834p-2, 0x1.bc7011ee63952p-2, 0x1.48p+5},
       {13, 17, 0x1.a3784a062b2e6p-4, 0x1.d7fb923aae768p-4, 0x1.4cp+6}},
      {0, 4, 2, 3, 5, 11, 17, 18, 13, 1, 15, 20, 12, 7, 16, 6, 8, 21, 10, 9,
       25, 24, 14, 22, 35, 19, 23, 28, 26, 31, 32, 30, 29, 27, 36, 39, 33,
       37, 34, 42, 38, 45, 40, 41, 46, 43, 47, 49, 48, 52, 44, 50, 51, 53,
       54, 55});
}

TEST(DagGolden, RandomDagFaultedPerturbedIsBitIdentical) {
  expect_matches(
      run("RandomDag", Scenario::kFaultedPerturbed), 0x1.fd719203b533p-2, 77, 56, 1, 1,
      {{10, 15, 0x1.9342a58b36f01p-2, 0x1.fd719203b533p-2, 0x1.a78a40eb578c2p+3},
       {11, 21, 0x1.bf7b82c7f67d9p-2, 0x1.f12231ba20433p-2, 0x1.ac5bbad6a091fp+3},
       {22, 25, 0x1.7bde702ef6d49p-2, 0x1.cabfe72ba4a8dp-2, 0x1.0d9e934b698bbp+5},
       {13, 16, 0x1.9f5813b8c04f2p-4, 0x1.d3db5bed43975p-4, 0x1.75ab77b5f371fp+6}},
      {0, 4, 3, 2, 5, 15, 16, 18, 11, 1, 12, 17, 20, 7, 13, 8, 6, 14, 21, 9,
       23, 10, 24, 30, 25, 19, 35, 22, 33, 27, 31, 29, 32, 26, 36, 39, 37,
       42, 28, 40, 34, 45, 46, 38, 48, 51, 43, 41, 44, 47, 50, 49, 52, 53,
       54, 55});
}

TEST(DagGolden, CriticalPathDagCleanIsBitIdentical) {
  expect_matches(
      run("CriticalPathDag", Scenario::kClean), 0x1.5f0321f3d409ap-2, 70, 56, 0, 0,
      {{6, 9, 0x1.20d20d20d20d2p-2, 0x1.5cf4bd328b0aap-2, 0x1.ap+3},
       {12, 19, 0x1.fa1d6cdfa1d6ep-3, 0x1.291566435a88p-2, 0x1.dp+4},
       {13, 19, 0x1.b93c5b93c5b94p-3, 0x1.3592470b28948p-2, 0x1.48p+5},
       {25, 23, 0x1.930523fbe3367p-3, 0x1.5f0321f3d409ap-2, 0x1.4cp+6}},
      {0, 3, 5, 2, 1, 17, 8, 12, 4, 10, 6, 7, 21, 13, 22, 23, 14, 25, 11, 19,
       16, 29, 26, 27, 36, 32, 9, 39, 37, 15, 18, 20, 35, 30, 45, 42, 24, 40,
       28, 38, 46, 33, 31, 48, 51, 43, 41, 47, 49, 52, 34, 44, 50, 53, 54, 55});
}

TEST(DagGolden, CriticalPathDagFaultedIsBitIdentical) {
  expect_matches(
      run("CriticalPathDag", Scenario::kFaulted), 0x1.02d942e4ebc71p-1, 67, 56, 1, 1,
      {{9, 14, 0x1.be5be5be5be5cp-2, 0x1.f9ed5f891b3bcp-2, 0x1.ap+3},
       {12, 17, 0x1.902f149902f15p-2, 0x1.02d942e4ebc71p-1, 0x1.dp+3},
       {24, 21, 0x1.7ef597ef597f2p-2, 0x1.d28ae961b8c5ap-2, 0x1.48p+5},
       {11, 15, 0x1.a3784a062b2e5p-4, 0x1.d7fb923aae768p-4, 0x1.4cp+6}},
      {0, 3, 5, 2, 1, 17, 8, 12, 4, 10, 6, 7, 21, 13, 22, 23, 14, 25, 11, 19,
       29, 27, 9, 26, 16, 32, 36, 24, 15, 37, 34, 39, 30, 31, 28, 42, 40, 46,
       20, 18, 38, 48, 33, 44, 35, 45, 43, 51, 41, 47, 50, 49, 52, 53, 54, 55});
}

TEST(DagGolden, CriticalPathDagFaultedPerturbedIsBitIdentical) {
  expect_matches(
      run("CriticalPathDag", Scenario::kFaultedPerturbed), 0x1.1019e3fb22f4dp-1, 73, 56, 1, 1,
      {{8, 12, 0x1.c115ffce79465p-2, 0x1.0a4f058b27c24p-1, 0x1.5724e4f51acf3p+3},
       {11, 19, 0x1.c7683330f704ep-2, 0x1.1019e3fb22f4dp-1, 0x1.c20d1eef37016p+3},
       {24, 25, 0x1.4ac9665045effp-2, 0x1.e4b38dde588f8p-2, 0x1.3adad9bd61ceap+5},
       {13, 17, 0x1.af98328c29c51p-4, 0x1.e41b7ac0ad0d4p-4, 0x1.77eabd5f288d7p+6}},
      {0, 3, 2, 5, 1, 14, 8, 12, 4, 6, 10, 21, 7, 16, 22, 13, 23, 11, 25, 17,
       19, 26, 32, 27, 36, 9, 15, 37, 30, 29, 18, 24, 40, 31, 39, 34, 33, 46,
       20, 28, 35, 42, 45, 38, 48, 41, 47, 43, 51, 49, 52, 44, 50, 53, 54, 55});
}

TEST(DagGolden, DataAwareDagCleanIsBitIdentical) {
  expect_matches(
      run("DataAwareDag", Scenario::kClean), 0x1.72bc50b8db0b6p-2, 71, 56, 0, 0,
      {{7, 11, 0x1.4834834834834p-2, 0x1.5ceaf715268bap-2, 0x1.ap+3},
       {12, 16, 0x1.02f149902f14ap-2, 0x1.6e92b07641073p-2, 0x1.dp+4},
       {16, 21, 0x1.eb2fdeb2fdeb3p-3, 0x1.72bc50b8db0b6p-2, 0x1.48p+5},
       {21, 23, 0x1.69e544e22f4afp-3, 0x1.59d8495a879a8p-2, 0x1.4cp+6}},
      {0, 4, 2, 5, 1, 13, 9, 14, 3, 10, 11, 7, 19, 6, 16, 12, 21, 17, 15, 25,
       22, 24, 20, 34, 26, 36, 8, 28, 35, 29, 38, 18, 39, 33, 43, 23, 45, 31,
       30, 44, 32, 27, 37, 42, 41, 40, 46, 48, 47, 49, 52, 50, 53, 51, 54, 55});
}

TEST(DagGolden, DataAwareDagFaultedIsBitIdentical) {
  expect_matches(
      run("DataAwareDag", Scenario::kFaulted), 0x1.03e2f60ea6e4p-1, 64, 56, 1, 1,
      {{9, 14, 0x1.cb7cb7cb7cb7dp-2, 0x1.03e2f60ea6e4p-1, 0x1.ap+3},
       {12, 16, 0x1.b37e875b37e89p-2, 0x1.ee2839485ee97p-2, 0x1.dp+3},
       {25, 21, 0x1.76a2576a2576dp-2, 0x1.faa51a102cf5fp-2, 0x1.48p+5},
       {10, 13, 0x1.8acb90f6bf3aap-4, 0x1.bf4ed92b4282dp-4, 0x1.4cp+6}},
      {0, 4, 2, 5, 1, 13, 9, 14, 3, 10, 11, 7, 19, 6, 16, 12, 21, 17, 15, 25,
       24, 20, 35, 22, 8, 34, 23, 29, 26, 28, 31, 30, 36, 39, 27, 45, 38, 32,
       37, 44, 18, 42, 40, 46, 33, 48, 51, 41, 43, 47, 49, 52, 50, 53, 54, 55});
}

TEST(DagGolden, DataAwareDagFaultedPerturbedIsBitIdentical) {
  expect_matches(
      run("DataAwareDag", Scenario::kFaultedPerturbed), 0x1.043e907b4c0b8p-1, 66, 56, 1, 1,
      {{10, 14, 0x1.e174808dc994p-2, 0x1.fe476bcb46c6dp-2, 0x1.6cbca9d1312afp+3},
       {11, 17, 0x1.87d748567a2a8p-2, 0x1.043e907b4c0b8p-1, 0x1.feaaba199d53dp+3},
       {23, 23, 0x1.757c0bf3b49d5p-2, 0x1.d1331f47d757fp-2, 0x1.15380b5d69f2fp+5},
       {12, 12, 0x1.8b2469e83e68fp-4, 0x1.bfa7b21cc1b12p-4, 0x1.61ff6d58a9b3bp+6}},
      {0, 4, 5, 2, 1, 13, 9, 19, 3, 10, 7, 6, 21, 14, 24, 25, 34, 12, 16, 22,
       28, 11, 26, 8, 29, 15, 36, 17, 39, 23, 38, 20, 44, 31, 30, 32, 27, 18,
       33, 43, 35, 45, 37, 41, 40, 46, 42, 48, 47, 51, 50, 49, 52, 53, 54, 55});
}

TEST(DagGolden, TracedCompletionsAreBitIdentical) {
  struct Completion {
    std::uint32_t worker;
    double time;
    TaskId task;
  };
  const std::vector<Completion> golden = {
      {0, 0x1.a41a41a41a41ap-7, 0}, {3, 0x1.34c0050fbcef8p-6, 4},
      {2, 0x1.99db2d4eede8ap-6, 3}, {3, 0x1.9b7ba88704912p-6, 2},
      {1, 0x1.ec88b6e3b4da3p-6, 5}, {2, 0x1.3286f70c70fe8p-5, 15},
      {3, 0x1.32de4a945ab49p-5, 16}, {3, 0x1.673b1e5b2eabep-5, 18},
      {1, 0x1.81ca31593d98cp-5, 11}, {0, 0x1.aafe05df1d7eap-5, 1},
      {3, 0x1.cce0a7bf93d91p-5, 12}, {2, 0x1.f8103e09c5fcap-5, 17},
      {1, 0x1.08a6f2e807955p-4, 20}, {3, 0x1.16e1f6887dadep-4, 7},
      {3, 0x1.46efb9fad27dap-4, 13}, {2, 0x1.5ac9c0275aec3p-4, 8},
      {3, 0x1.5e23273ad4296p-4, 6}, {3, 0x1.8b0eb4ffd3ff3p-4, 14},
      {3, 0x1.928de15cbafd2p-4, 21}, {1, 0x1.988d4ee435746p-4, 9},
      {3, 0x1.a8752dafe6a82p-4, 23}, {2, 0x1.bada5760c276p-4, 10},
      {3, 0x1.be50fc6ab9ad2p-4, 24}, {3, 0x1.d3db5bed43975p-4, 30},
      {2, 0x1.ec1aac76c13fdp-4, 25}, {0, 0x1.066406837eb58p-3, 19},
      {2, 0x1.0e71783e7510dp-3, 35}, {1, 0x1.16a64e4c6cc1ep-3, 22},
      {2, 0x1.27a3de3e1c593p-3, 33}, {2, 0x1.5c32ffd1bf67dp-3, 27},
      {2, 0x1.9254be5de97fep-3, 31}, {1, 0x1.a4a37e9c334fep-3, 29},
      {0, 0x1.a9bfe4354e8afp-3, 32}, {2, 0x1.ac87eaa2875cp-3, 26},
      {2, 0x1.b562c1eb64da2p-3, 36}, {2, 0x1.cec0392f1c535p-3, 39},
      {2, 0x1.e85fcb7890938p-3, 37}, {2, 0x1.0e0370cc15712p-2, 42},
      {1, 0x1.18504f704132bp-2, 28}, {2, 0x1.1b207b131f26bp-2, 40},
      {0, 0x1.2307010564695p-2, 34}, {2, 0x1.28a4aaff1917dp-2, 45},
      {0, 0x1.2fb4baea2df98p-2, 46}, {1, 0x1.3a7d9907db644p-2, 38},
      {2, 0x1.3d0a1ec8ae69bp-2, 48}, {2, 0x1.4a0dc79eba421p-2, 51},
      {0, 0x1.5fa2f810ae02bp-2, 43}, {2, 0x1.65589c622c5dp-2, 41},
      {1, 0x1.817d0b089344p-2, 44}, {0, 0x1.8adc3a1e93f2dp-2, 47},
      {2, 0x1.a701cfa6c5abep-2, 50}, {1, 0x1.af99395c9c642p-2, 49},
      {0, 0x1.bc2ec6eed636ap-2, 52}, {2, 0x1.cabfe72ba4a8dp-2, 53},
      {1, 0x1.f12231ba20433p-2, 54}, {0, 0x1.fd719203b533p-2, 55}};
  RecordingTrace trace;
  run("RandomDag", Scenario::kFaultedPerturbed, &trace);
  ASSERT_EQ(trace.completions().size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(trace.completions()[i].worker, golden[i].worker);
    EXPECT_EQ(trace.completions()[i].time, golden[i].time);
    EXPECT_EQ(trace.completions()[i].task, golden[i].task);
  }
}

}  // namespace
}  // namespace hetsched
