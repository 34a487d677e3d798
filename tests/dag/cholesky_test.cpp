#include "dag/cholesky.hpp"

#include <gtest/gtest.h>

namespace hetsched {
namespace {

class CholeskyGraphTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CholeskyGraphTest, KernelCountsMatchClosedForms) {
  const std::uint32_t t = GetParam();
  const CholeskyGraph ch = build_cholesky_graph(t);
  EXPECT_EQ(ch.graph.count_kind("POTRF"), cholesky_potrf_count(t));
  EXPECT_EQ(ch.graph.count_kind("TRSM"), cholesky_trsm_count(t));
  EXPECT_EQ(ch.graph.count_kind("SYRK"), cholesky_syrk_count(t));
  EXPECT_EQ(ch.graph.count_kind("GEMM"), cholesky_gemm_count(t));
  EXPECT_EQ(ch.graph.num_tasks(),
            cholesky_potrf_count(t) + cholesky_trsm_count(t) +
                cholesky_syrk_count(t) + cholesky_gemm_count(t));
  EXPECT_EQ(ch.graph.num_tiles(),
            static_cast<std::size_t>(t) * (t + 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyGraphTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u));

TEST(CholeskyGraph, TileRoundTrips) {
  const CholeskyGraph ch = build_cholesky_graph(7);
  for (std::uint32_t i = 0; i < 7; ++i) {
    for (std::uint32_t j = 0; j <= i; ++j) {
      const TileId id = ch.tile(i, j);
      const auto [ri, rj] = ch.tile_coords(id);
      EXPECT_EQ(ri, i);
      EXPECT_EQ(rj, j);
    }
  }
}

TEST(CholeskyGraph, TileRejectsUpperTriangle) {
  const CholeskyGraph ch = build_cholesky_graph(4);
  EXPECT_THROW(ch.tile(1, 2), std::invalid_argument);
  EXPECT_THROW(ch.tile(4, 0), std::invalid_argument);
  EXPECT_THROW(ch.tile_coords(10), std::invalid_argument);
}

TEST(CholeskyGraph, SingleTileIsJustPotrf) {
  const CholeskyGraph ch = build_cholesky_graph(1);
  EXPECT_EQ(ch.graph.num_tasks(), 1u);
  EXPECT_EQ(ch.graph.task(0).kind, "POTRF");
  EXPECT_TRUE(ch.graph.task(0).deps.empty());
}

TEST(CholeskyGraph, FirstPotrfIsTheOnlySource) {
  const CholeskyGraph ch = build_cholesky_graph(6);
  std::size_t sources = 0;
  for (DagTaskId t = 0; t < ch.graph.num_tasks(); ++t) {
    if (ch.graph.task(t).deps.empty()) ++sources;
  }
  // POTRF(0) plus the k=0 TRSMs/SYRKs/GEMMs that read untouched input
  // tiles depend on POTRF(0) or panel tasks... only tasks reading
  // untouched tiles with no prior writer can be sources. TRSM(i,0)
  // depends on POTRF(0); SYRK/GEMM(.,0) depend on TRSMs. So exactly 1.
  EXPECT_EQ(sources, 1u);
  EXPECT_EQ(ch.graph.task(0).kind, "POTRF");
}

TEST(CholeskyGraph, CriticalPathGrowsLinearlyInT) {
  // The critical path of tiled Cholesky is Theta(T).
  const double cp8 = build_cholesky_graph(8).graph.critical_path();
  const double cp16 = build_cholesky_graph(16).graph.critical_path();
  EXPECT_GT(cp16, 1.6 * cp8);
  EXPECT_LT(cp16, 3.0 * cp8);
}

TEST(CholeskyGraph, WeightsScaleWork) {
  CholeskyWeights heavy;
  heavy.gemm = 10.0;
  const double base = build_cholesky_graph(8).graph.total_work();
  const double heavier = build_cholesky_graph(8, heavy).graph.total_work();
  EXPECT_GT(heavier, base);
}

TEST(CholeskyGraph, DependenciesRespectDataFlow) {
  // Every input tile of every task is either original data or written
  // by a declared dependency (the producer ordering is what the
  // last-writer construction guarantees).
  const CholeskyGraph ch = build_cholesky_graph(5);
  const TaskGraph& g = ch.graph;
  for (DagTaskId t = 0; t < g.num_tasks(); ++t) {
    for (const TileId tile : g.task(t).inputs) {
      // Find the most recent writer of `tile` among tasks before t.
      DagTaskId writer = kNoTile;
      for (DagTaskId u = 0; u < t; ++u) {
        if (g.task(u).output == tile) writer = u;
      }
      if (writer != kNoTile) {
        const auto& deps = g.task(t).deps;
        EXPECT_TRUE(std::find(deps.begin(), deps.end(), writer) != deps.end())
            << "task " << t << " reads tile " << tile
            << " without depending on its writer " << writer;
      }
    }
  }
}

TEST(CholeskyGraph, RejectsZeroTiles) {
  EXPECT_THROW(build_cholesky_graph(0), std::invalid_argument);
}

}  // namespace
}  // namespace hetsched
