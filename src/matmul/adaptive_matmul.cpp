#include "matmul/adaptive_matmul.hpp"

#include <stdexcept>

namespace hetsched {

AdaptiveMatmulStrategy::AdaptiveMatmulStrategy(MatmulConfig config,
                                               std::uint32_t workers,
                                               std::uint64_t seed,
                                               double threshold,
                                               std::uint32_t window)
    : config_(config),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "matmul.adaptive")),
      threshold_(threshold),
      window_(window == 0 ? 2 * workers : window) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("AdaptiveMatmulStrategy: need >= 1 worker");
  }
  if (!(threshold > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveMatmulStrategy: threshold must be positive");
  }
  state_.resize(workers);
  for (auto& w : state_) {
    w.blocks = MatmulWorkerBlocks(config_.n);
    w.unknown_i.resize(config_.n);
    w.unknown_j.resize(config_.n);
    w.unknown_k.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      w.unknown_i[v] = v;
      w.unknown_j[v] = v;
      w.unknown_k[v] = v;
    }
  }
}

void AdaptiveMatmulStrategy::record_step(std::size_t blocks,
                                         std::size_t tasks) {
  recent_.push_back(StepCost{static_cast<std::uint32_t>(blocks),
                             static_cast<std::uint32_t>(tasks)});
  recent_blocks_ += blocks;
  recent_tasks_ += tasks;
  if (recent_.size() > window_) {
    recent_blocks_ -= recent_.front().blocks;
    recent_tasks_ -= recent_.front().tasks;
    recent_.pop_front();
  }
  if (recent_.size() < window_) return;
  // Blocks-per-task over the window; a zero-task window is infinitely
  // expensive and must fire immediately once armed.
  const double ratio =
      recent_tasks_ == 0
          ? threshold_ + 1.0
          : static_cast<double>(recent_blocks_) /
                static_cast<double>(recent_tasks_);
  if (!armed_) {
    if (ratio < 0.8 * threshold_) armed_ = true;
    return;
  }
  if (ratio > threshold_) {
    switched_ = true;
    tasks_at_switch_ = pool_.size();
  }
}

bool AdaptiveMatmulStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  if (switched_) return random_request(worker, out);
  return dynamic_request(worker, out);
}

bool AdaptiveMatmulStrategy::dynamic_request(std::uint32_t worker, Assignment& out) {
  WorkerState& w = state_[worker];
  if (w.unknown_i.empty() || w.unknown_j.empty() || w.unknown_k.empty()) {
    return random_request(worker, out);
  }
  const std::uint32_t i = rng_.take_uniform(w.unknown_i);
  const std::uint32_t j = rng_.take_uniform(w.unknown_j);
  const std::uint32_t k = rng_.take_uniform(w.unknown_k);
  const std::uint32_t n = config_.n;

  auto ship = [&](Operand op, DynamicBitset& owned, std::uint32_t r,
                  std::uint32_t c) {
    if (owned.set_if_clear(block_index(n, r, c))) {
      out.blocks.push_back(BlockRef{op, r, c});
    }
  };
  for (const std::uint32_t k2 : w.known_k) ship(Operand::kMatA, w.blocks.owned_a, i, k2);
  for (const std::uint32_t i2 : w.known_i) ship(Operand::kMatA, w.blocks.owned_a, i2, k);
  ship(Operand::kMatA, w.blocks.owned_a, i, k);
  for (const std::uint32_t j2 : w.known_j) ship(Operand::kMatB, w.blocks.owned_b, k, j2);
  for (const std::uint32_t k2 : w.known_k) ship(Operand::kMatB, w.blocks.owned_b, k2, j);
  ship(Operand::kMatB, w.blocks.owned_b, k, j);
  for (const std::uint32_t j2 : w.known_j) ship(Operand::kMatC, w.blocks.owned_c, i, j2);
  for (const std::uint32_t i2 : w.known_i) ship(Operand::kMatC, w.blocks.owned_c, i2, j);
  ship(Operand::kMatC, w.blocks.owned_c, i, j);

  auto try_take = [&](std::uint32_t ti, std::uint32_t tj, std::uint32_t tk) {
    const TaskId id = matmul_task_id(n, ti, tj, tk);
    if (pool_.remove(id)) out.tasks.push_back(id);
  };
  for (const std::uint32_t j2 : w.known_j) {
    for (const std::uint32_t k2 : w.known_k) try_take(i, j2, k2);
    try_take(i, j2, k);
  }
  for (const std::uint32_t k2 : w.known_k) try_take(i, j, k2);
  try_take(i, j, k);
  for (const std::uint32_t i2 : w.known_i) {
    for (const std::uint32_t k2 : w.known_k) try_take(i2, j, k2);
    try_take(i2, j, k);
  }
  for (const std::uint32_t i2 : w.known_i) {
    for (const std::uint32_t j2 : w.known_j) try_take(i2, j2, k);
  }

  w.known_i.push_back(i);
  w.known_j.push_back(j);
  w.known_k.push_back(k);
  record_step(out.blocks.size(), out.tasks.size());
  return true;
}

bool AdaptiveMatmulStrategy::random_request(std::uint32_t worker, Assignment& out) {
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j, k] = matmul_task_coords(config_.n, id);
  charge_matmul_task_blocks(config_.n, i, j, k, w.blocks, out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
