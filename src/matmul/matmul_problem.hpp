// Matrix-multiplication kernel model (Section 4).
//
// C = A * B over n x n block matrices yields n^3 independent unit tasks
// T_{i,j,k} : C_{i,j} += A_{i,k} * B_{k,j}. A task touches three blocks
// (A_{i,k}, B_{k,j}, C_{i,j}); each block a worker touches is charged
// exactly once — inputs when first shipped in, the C contribution when
// shipped back to the master, which reduces partial results (the paper
// neglects the reduction's compute cost, and so do we).
#pragma once

#include <cstdint>
#include <tuple>

#include "common/dynamic_bitset.hpp"
#include "common/fast_div.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

struct MatmulConfig {
  /// Largest n validate() accepts (see matmul_problem.cpp).
  static constexpr std::uint32_t kMaxN = 1024;

  /// Blocks per matrix dimension (the paper's N/l). Tasks: n^3.
  std::uint32_t n = 40;

  std::uint64_t total_tasks() const noexcept {
    const auto n64 = static_cast<std::uint64_t>(n);
    return n64 * n64 * n64;
  }
};

/// Task id for T_{i,j,k}, laid out as ((i * n) + j) * n + k.
constexpr TaskId matmul_task_id(std::uint32_t n, std::uint32_t i,
                                std::uint32_t j, std::uint32_t k) noexcept {
  return (static_cast<TaskId>(i) * n + j) * n + k;
}

/// Inverse of matmul_task_id: (i, j, k).
constexpr std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>
matmul_task_coords(std::uint32_t n, TaskId id) noexcept {
  const auto k = static_cast<std::uint32_t>(id % n);
  const auto ij = id / n;
  return {static_cast<std::uint32_t>(ij / n), static_cast<std::uint32_t>(ij % n),
          k};
}

/// Hot-path variant for strategies that convert one id per served task:
/// both divides by n go through a precomputed multiply-shift.
inline std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>
matmul_task_coords(const FastDiv32& n, TaskId id) noexcept {
  const std::uint64_t ij = n.div(id);
  const auto k = static_cast<std::uint32_t>(id - ij * n.divisor());
  const std::uint64_t i = n.div(ij);
  return {static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(ij - i * n.divisor()), k};
}

/// Flat index of an n x n block coordinate (for ownership bitsets).
constexpr std::size_t block_index(std::uint32_t n, std::uint32_t r,
                                  std::uint32_t c) noexcept {
  return static_cast<std::size_t>(r) * n + c;
}

/// Validates a MatmulConfig (n >= 1, n^3 fits in practical memory).
void validate(const MatmulConfig& config);

/// Per-worker block caches for matrix multiplication: which A, B blocks
/// have been shipped in, and which C blocks the worker has already
/// started contributing to (charged once, when shipped back).
struct MatmulWorkerBlocks {
  DynamicBitset owned_a;  // n*n bits over (i, k)
  DynamicBitset owned_b;  // n*n bits over (k, j)
  DynamicBitset owned_c;  // n*n bits over (i, j)

  explicit MatmulWorkerBlocks(std::uint32_t n = 0)
      : owned_a(static_cast<std::size_t>(n) * n),
        owned_b(static_cast<std::size_t>(n) * n),
        owned_c(static_cast<std::size_t>(n) * n) {}

  void clear() noexcept {
    owned_a.clear();
    owned_b.clear();
    owned_c.clear();
  }
};

/// Appends the (up to three) block transfers task (i,j,k) requires for
/// a worker with caches `blocks`, updating the caches: A_{i,k}, B_{k,j},
/// then C_{i,j}. Every single-task serve charges here.
inline void charge_matmul_task_blocks(std::uint32_t n, std::uint32_t i,
                                      std::uint32_t j, std::uint32_t k,
                                      MatmulWorkerBlocks& blocks,
                                      Assignment& assignment) {
  if (blocks.owned_a.set_if_clear(block_index(n, i, k))) {
    assignment.blocks.push_back(BlockRef{Operand::kMatA, i, k});
  }
  if (blocks.owned_b.set_if_clear(block_index(n, k, j))) {
    assignment.blocks.push_back(BlockRef{Operand::kMatB, k, j});
  }
  if (blocks.owned_c.set_if_clear(block_index(n, i, j))) {
    assignment.blocks.push_back(BlockRef{Operand::kMatC, i, j});
  }
}

}  // namespace hetsched
