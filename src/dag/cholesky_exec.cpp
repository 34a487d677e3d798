#include "dag/cholesky_exec.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "runtime/cholesky_kernels.hpp"

namespace hetsched {

BlockMatrix make_spd_matrix(std::uint32_t n_blocks, std::uint32_t l,
                            std::uint64_t seed) {
  const std::uint32_t dim = n_blocks * l;
  // A = M M^T + dim * I is SPD for any M.
  std::vector<double> m(static_cast<std::size_t>(dim) * dim);
  Rng rng(derive_stream(seed, "spd"));
  for (auto& v : m) v = rng.uniform(-1.0, 1.0);

  BlockMatrix a(n_blocks, l);
  for (std::uint32_t r = 0; r < dim; ++r) {
    for (std::uint32_t c = 0; c <= r; ++c) {
      double sum = (r == c) ? static_cast<double>(dim) : 0.0;
      for (std::uint32_t k = 0; k < dim; ++k) {
        sum += m[static_cast<std::size_t>(r) * dim + k] *
               m[static_cast<std::size_t>(c) * dim + k];
      }
      a.at(r, c) = sum;
      a.at(c, r) = sum;
    }
  }
  return a;
}

CholeskyExecResult execute_cholesky_order(const CholeskyGraph& cholesky,
                                          const BlockMatrix& a,
                                          const std::vector<DagTaskId>& order) {
  const TaskGraph& graph = cholesky.graph;
  if (a.n_blocks() != cholesky.tiles) {
    throw std::invalid_argument(
        "execute_cholesky_order: matrix / graph tile count mismatch");
  }
  if (order.size() != graph.num_tasks()) {
    throw std::invalid_argument(
        "execute_cholesky_order: order must cover every task exactly once");
  }
  std::vector<bool> seen(graph.num_tasks(), false);
  for (const DagTaskId t : order) {
    if (t >= graph.num_tasks() || seen[t]) {
      throw std::invalid_argument(
          "execute_cholesky_order: order is not a permutation");
    }
    seen[t] = true;
  }

  const std::uint32_t l = a.block_size();
  BlockMatrix work = a;

  CholeskyExecResult result;
  for (const DagTaskId id : order) {
    const DagTask& task = graph.task(id);
    if (task.kind == "POTRF") {
      const auto [k, k2] = cholesky.tile_coords(task.output);
      (void)k2;
      if (!potrf_block(work.block(k, k), l)) {
        throw std::runtime_error(
            "execute_cholesky_order: non-SPD pivot (dependency-violating "
            "order?)");
      }
    } else if (task.kind == "TRSM") {
      const auto [i, k] = cholesky.tile_coords(task.output);
      trsm_block(work.block(k, k), work.block(i, k), l);
    } else if (task.kind == "SYRK") {
      const auto [j, j2] = cholesky.tile_coords(task.output);
      (void)j2;
      // The panel input is the non-diagonal input tile.
      TileId panel = task.inputs[0] == task.output ? task.inputs[1]
                                               : task.inputs[0];
      const auto [pi, pk] = cholesky.tile_coords(panel);
      (void)pi;
      syrk_block(work.block(j, pk), work.block(j, j), l);
    } else if (task.kind == "GEMM") {
      const auto [i, j] = cholesky.tile_coords(task.output);
      // Inputs: A(i,k), A(j,k), A(i,j); recover k from the input that is
      // neither the output nor in row j ... simpler: find the two panel
      // tiles by excluding the output.
      std::uint32_t k = 0;
      bool found = false;
      for (const TileId input : task.inputs) {
        if (input == task.output) continue;
        const auto [r, c] = cholesky.tile_coords(input);
        if (r == i) {
          k = c;
          found = true;
        }
      }
      if (!found) {
        throw std::logic_error("execute_cholesky_order: malformed GEMM task");
      }
      gemm_nt_block(work.block(i, k), work.block(j, k), work.block(i, j), l);
    } else {
      throw std::logic_error("execute_cholesky_order: unknown kernel kind");
    }
    ++result.tasks_executed;
  }

  // Verify L L^T == A on the full matrix (L is the lower triangle of
  // the worked matrix, including the zeroed upper parts of diagonal
  // blocks written by potrf_block).
  const std::uint32_t dim = cholesky.tiles * l;
  auto l_at = [&](std::uint32_t r, std::uint32_t c) -> double {
    if (c > r) return 0.0;
    const std::uint32_t bi = r / l;
    const std::uint32_t bj = c / l;
    if (bj > bi) return 0.0;
    return work.at(r, c);
  };
  double worst = 0.0;
  for (std::uint32_t r = 0; r < dim; ++r) {
    for (std::uint32_t c = 0; c <= r; ++c) {
      double sum = 0.0;
      const std::uint32_t kmax = std::min(r, c);
      for (std::uint32_t k = 0; k <= kmax; ++k) sum += l_at(r, k) * l_at(c, k);
      worst = std::max(worst, std::abs(sum - a.at(r, c)));
    }
  }
  result.factorization_error = worst;
  return result;
}

}  // namespace hetsched
