#include "matmul/pointwise_matmul.hpp"

namespace hetsched {

PointwiseMatmulStrategy::PointwiseMatmulStrategy(MatmulConfig config,
                                                 std::uint32_t workers,
                                                 std::uint64_t seed,
                                                 Order order)
    : config_(config),
      n_div_(config.n),
      order_(order),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "matmul.random")) {
  validate(config_);
  owned_.assign(workers, MatmulWorkerBlocks(config_.n));
}

bool PointwiseMatmulStrategy::on_request(std::uint32_t worker,
                                         Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const TaskId id = order_ == Order::kRandom ? pool_.pop_random_unindexed(rng_)
                                             : pool_.pop_first();
  const auto [i, j, k] = matmul_task_coords(n_div_, id);
  charge_matmul_task_blocks(config_.n, i, j, k, owned_[worker], out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
