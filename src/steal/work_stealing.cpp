#include "steal/work_stealing.hpp"

#include <stdexcept>

namespace hetsched {

WorkStealingOuterStrategy::WorkStealingOuterStrategy(OuterConfig config,
                                                     std::uint32_t workers,
                                                     std::uint64_t seed)
    : config_(config),
      core_(workers, Rng(derive_stream(seed, "steal.outer"))) {
  validate(config_);
  blocks_.assign(workers, OuterWorkerBlocks(config_.n));
  // Speed-agnostic initial partition: contiguous row bands of (nearly)
  // equal size, each band's tasks in lexicographic order.
  const std::uint32_t n = config_.n;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto owner = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * workers) / n);
    for (std::uint32_t j = 0; j < n; ++j) {
      core_.seed_task(owner, outer_task_id(n, i, j));
    }
  }
}

bool WorkStealingOuterStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  const auto id = core_.next_task(worker);
  if (!id.has_value()) return false;
  const auto [i, j] = outer_task_coords(config_.n, *id);
  charge_outer_task_blocks(i, j, blocks_[worker], out);
  out.tasks.push_back(*id);
  return true;
}

WorkStealingMatmulStrategy::WorkStealingMatmulStrategy(MatmulConfig config,
                                                       std::uint32_t workers,
                                                       std::uint64_t seed)
    : config_(config),
      core_(workers, Rng(derive_stream(seed, "steal.matmul"))) {
  validate(config_);
  blocks_.assign(workers, MatmulWorkerBlocks(config_.n));
  const std::uint32_t n = config_.n;
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto owner = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * workers) / n);
    for (std::uint32_t j = 0; j < n; ++j) {
      for (std::uint32_t k = 0; k < n; ++k) {
        core_.seed_task(owner, matmul_task_id(n, i, j, k));
      }
    }
  }
}

bool WorkStealingMatmulStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  const auto id = core_.next_task(worker);
  if (!id.has_value()) return false;
  const auto [i, j, k] = matmul_task_coords(config_.n, *id);

  charge_matmul_task_blocks(config_.n, i, j, k, blocks_[worker], out);
  out.tasks.push_back(*id);
  return true;
}

}  // namespace hetsched
