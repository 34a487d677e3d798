// Outer-product kernel model (Section 3).
//
// Computing M = a b^t for block vectors of n blocks yields n^2
// independent unit tasks T_{i,j} = a_i b_j^t. A task needs blocks a_i
// and b_j; workers cache every block they receive, so communication is
// charged only on first receipt.
#pragma once

#include <cstdint>
#include <utility>

#include "common/dynamic_bitset.hpp"
#include "common/fast_div.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

struct OuterConfig {
  /// Blocks per input vector (the paper's N/l). Tasks: n^2.
  std::uint32_t n = 100;

  std::uint64_t total_tasks() const noexcept {
    return static_cast<std::uint64_t>(n) * n;
  }
};

/// Row-major task id for T_{i,j}.
constexpr TaskId outer_task_id(std::uint32_t n, std::uint32_t i,
                               std::uint32_t j) noexcept {
  return static_cast<TaskId>(i) * n + j;
}

/// Inverse of outer_task_id.
constexpr std::pair<std::uint32_t, std::uint32_t> outer_task_coords(
    std::uint32_t n, TaskId id) noexcept {
  return {static_cast<std::uint32_t>(id / n), static_cast<std::uint32_t>(id % n)};
}

/// Hot-path variant for strategies that convert one id per served task:
/// divides by a precomputed multiply-shift instead of hardware divide.
inline std::pair<std::uint32_t, std::uint32_t> outer_task_coords(
    const FastDiv32& n, TaskId id) noexcept {
  const std::uint64_t i = n.div(id);
  return {static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(id - i * n.divisor())};
}

/// Validates an OuterConfig (n >= 1, n^2 fits comfortably).
void validate(const OuterConfig& config);

/// Per-worker block cache of the outer product: which a_i and b_j the
/// worker has received. The rectangular kernel (src/rect) sizes the two
/// sides apart.
struct OuterWorkerBlocks {
  DynamicBitset owned_a;
  DynamicBitset owned_b;

  explicit OuterWorkerBlocks(std::uint32_t n = 0) : OuterWorkerBlocks(n, n) {}
  OuterWorkerBlocks(std::uint32_t rows, std::uint32_t cols)
      : owned_a(rows), owned_b(cols) {}

  void clear() noexcept {
    owned_a.clear();
    owned_b.clear();
  }
};

/// Appends the (up to two) block transfers task (i, j) requires for a
/// worker with caches `blocks`, updating the caches: a_i, then b_j,
/// each on first receipt only. Every single-task serve charges here.
inline void charge_outer_task_blocks(std::uint32_t i, std::uint32_t j,
                                     OuterWorkerBlocks& blocks,
                                     Assignment& out) {
  if (blocks.owned_a.set_if_clear(i)) {
    out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
  }
  if (blocks.owned_b.set_if_clear(j)) {
    out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
  }
}

}  // namespace hetsched
