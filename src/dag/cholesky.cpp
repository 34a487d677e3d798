#include "dag/cholesky.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace hetsched {

TileId CholeskyGraph::tile(std::uint32_t i, std::uint32_t j) const {
  if (j > i || i >= tiles) {
    throw std::invalid_argument("CholeskyGraph::tile: need i >= j, i < T");
  }
  // Row-packed lower triangle: row i starts at i(i+1)/2.
  return static_cast<TileId>(static_cast<std::size_t>(i) * (i + 1) / 2 + j);
}

std::pair<std::uint32_t, std::uint32_t> CholeskyGraph::tile_coords(
    TileId id) const {
  if (id >= static_cast<std::size_t>(tiles) * (tiles + 1) / 2) {
    throw std::invalid_argument("CholeskyGraph::tile_coords: bad tile id");
  }
  // Invert i(i+1)/2 + j: i is the largest row whose start is <= id.
  std::uint32_t i = static_cast<std::uint32_t>(
      (std::sqrt(8.0 * static_cast<double>(id) + 1.0) - 1.0) / 2.0);
  while (static_cast<std::size_t>(i + 1) * (i + 2) / 2 <= id) ++i;
  while (static_cast<std::size_t>(i) * (i + 1) / 2 > id) --i;
  const auto j = static_cast<std::uint32_t>(
      id - static_cast<std::size_t>(i) * (i + 1) / 2);
  return {i, j};
}

CholeskyGraph build_cholesky_graph(std::uint32_t tiles,
                                   const CholeskyWeights& weights) {
  if (tiles == 0) {
    throw std::invalid_argument("build_cholesky_graph: need at least 1 tile");
  }
  CholeskyGraph result;
  result.tiles = tiles;
  TaskGraph& g = result.graph;

  const std::size_t n_tiles =
      static_cast<std::size_t>(tiles) * (tiles + 1) / 2;
  for (std::size_t t = 0; t < n_tiles; ++t) g.add_tile();

  // Last writer of each tile, for dependency tracking. kNoWriter means
  // the tile still holds original input data.
  constexpr DagTaskId kNoWriter = std::numeric_limits<DagTaskId>::max();
  std::vector<DagTaskId> last_writer(n_tiles, kNoWriter);

  auto dep_on = [&](std::vector<DagTaskId>& deps, TileId tile) {
    const DagTaskId w = last_writer[tile];
    if (w != kNoWriter) deps.push_back(w);
  };

  for (std::uint32_t k = 0; k < tiles; ++k) {
    // POTRF(k): factorizes the diagonal tile in place.
    {
      const TileId akk = result.tile(k, k);
      DagTask task;
      task.kind = "POTRF";
      task.work = weights.potrf;
      task.inputs = {akk};
      task.output = akk;
      dep_on(task.deps, akk);
      last_writer[akk] = g.add_task(std::move(task));
    }
    // TRSM(i, k): solves the panel below the diagonal.
    for (std::uint32_t i = k + 1; i < tiles; ++i) {
      const TileId akk = result.tile(k, k);
      const TileId aik = result.tile(i, k);
      DagTask task;
      task.kind = "TRSM";
      task.work = weights.trsm;
      task.inputs = {akk, aik};
      task.output = aik;
      dep_on(task.deps, akk);
      dep_on(task.deps, aik);
      last_writer[aik] = g.add_task(std::move(task));
    }
    // Trailing update: SYRK on diagonal tiles, GEMM elsewhere.
    for (std::uint32_t j = k + 1; j < tiles; ++j) {
      {
        const TileId ajk = result.tile(j, k);
        const TileId ajj = result.tile(j, j);
        DagTask task;
        task.kind = "SYRK";
        task.work = weights.syrk;
        task.inputs = {ajk, ajj};
        task.output = ajj;
        dep_on(task.deps, ajk);
        dep_on(task.deps, ajj);
        last_writer[ajj] = g.add_task(std::move(task));
      }
      for (std::uint32_t i = j + 1; i < tiles; ++i) {
        const TileId aik = result.tile(i, k);
        const TileId ajk = result.tile(j, k);
        const TileId aij = result.tile(i, j);
        DagTask task;
        task.kind = "GEMM";
        task.work = weights.gemm;
        task.inputs = {aik, ajk, aij};
        task.output = aij;
        dep_on(task.deps, aik);
        dep_on(task.deps, ajk);
        dep_on(task.deps, aij);
        last_writer[aij] = g.add_task(std::move(task));
      }
    }
  }
  g.validate();
  return result;
}

std::size_t cholesky_potrf_count(std::uint32_t t) { return t; }

std::size_t cholesky_trsm_count(std::uint32_t t) {
  return static_cast<std::size_t>(t) * (t - 1) / 2;
}

std::size_t cholesky_syrk_count(std::uint32_t t) {
  return static_cast<std::size_t>(t) * (t - 1) / 2;
}

std::size_t cholesky_gemm_count(std::uint32_t t) {
  if (t < 2) return 0;
  return static_cast<std::size_t>(t) * (t - 1) * (t - 2) / 6;
}

}  // namespace hetsched
