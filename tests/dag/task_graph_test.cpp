#include "dag/task_graph.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

TaskGraph chain_graph(int length) {
  TaskGraph g;
  const TileId tile = g.add_tile();
  DagTaskId prev = 0;
  for (int t = 0; t < length; ++t) {
    DagTask task;
    task.kind = "STEP";
    task.work = 1.0;
    task.inputs = {tile};
    task.output = tile;
    if (t > 0) task.deps = {prev};
    prev = g.add_task(std::move(task));
  }
  return g;
}

TEST(TaskGraph, EmptyGraph) {
  TaskGraph g;
  EXPECT_EQ(g.num_tasks(), 0u);
  EXPECT_EQ(g.num_tiles(), 0u);
  EXPECT_DOUBLE_EQ(g.total_work(), 0.0);
  EXPECT_DOUBLE_EQ(g.critical_path(), 0.0);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraph, ChainCriticalPathEqualsTotalWork) {
  const TaskGraph g = chain_graph(10);
  EXPECT_EQ(g.num_tasks(), 10u);
  EXPECT_DOUBLE_EQ(g.total_work(), 10.0);
  EXPECT_DOUBLE_EQ(g.critical_path(), 10.0);
}

TEST(TaskGraph, ForkJoinCriticalPath) {
  TaskGraph g;
  const TileId tile = g.add_tile();
  auto make_task = [&](double work, std::vector<DagTaskId> deps) {
    DagTask t;
    t.kind = "T";
    t.work = work;
    t.inputs = {tile};
    
    t.deps = std::move(deps);
    return g.add_task(std::move(t));
  };
  const DagTaskId root = make_task(1.0, {});
  const DagTaskId left = make_task(5.0, {root});
  const DagTaskId right = make_task(2.0, {root});
  make_task(1.0, {left, right});
  EXPECT_DOUBLE_EQ(g.critical_path(), 7.0);  // root -> left -> join
  EXPECT_DOUBLE_EQ(g.total_work(), 9.0);
}

TEST(TaskGraph, BottomLevelsAreMonotoneAlongEdges) {
  const TaskGraph g = chain_graph(5);
  const auto levels = g.bottom_levels();
  for (std::size_t t = 1; t < 5; ++t) {
    EXPECT_GT(levels[t - 1], levels[t]);
  }
  EXPECT_DOUBLE_EQ(levels[4], 1.0);
}

TEST(TaskGraph, SuccessorsInvertDeps) {
  const TaskGraph g = chain_graph(4);
  const auto& succ = g.successors();
  ASSERT_EQ(succ.size(), 4u);
  EXPECT_EQ(succ[0], std::vector<DagTaskId>{1});
  EXPECT_EQ(succ[3], std::vector<DagTaskId>{});
}

TEST(TaskGraph, RejectsForwardDependencies) {
  TaskGraph g;
  DagTask task;
  task.kind = "T";
  task.work = 1.0;
  task.deps = {0};  // would depend on itself
  EXPECT_THROW(g.add_task(std::move(task)), std::invalid_argument);
}

TEST(TaskGraph, RejectsUnknownTiles) {
  TaskGraph g;
  DagTask task;
  task.kind = "T";
  task.work = 1.0;
  task.inputs = {5};
  EXPECT_THROW(g.add_task(std::move(task)), std::invalid_argument);

  DagTask task2;
  task2.kind = "T";
  task2.work = 1.0;
  task2.output = 3;
  EXPECT_THROW(g.add_task(std::move(task2)), std::invalid_argument);
}

TEST(TaskGraph, RejectsNonPositiveWork) {
  TaskGraph g;
  DagTask task;
  task.kind = "T";
  task.work = 0.0;
  EXPECT_THROW(g.add_task(std::move(task)), std::invalid_argument);
}

TEST(TaskGraph, CountKind) {
  TaskGraph g;
  for (int t = 0; t < 3; ++t) {
    DagTask task;
    task.kind += t == 1 ? "B" : "A";
    task.work = 1.0;
    g.add_task(std::move(task));
  }
  EXPECT_EQ(g.count_kind("A"), 2u);
  EXPECT_EQ(g.count_kind("B"), 1u);
  EXPECT_EQ(g.count_kind("C"), 0u);
}

}  // namespace
}  // namespace hetsched
