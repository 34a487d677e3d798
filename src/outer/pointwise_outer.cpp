#include "outer/pointwise_outer.hpp"

namespace hetsched {

PointwiseOuterStrategy::PointwiseOuterStrategy(OuterConfig config,
                                               std::uint32_t workers,
                                               std::uint64_t seed,
                                               Order order)
    : config_(config),
      n_div_(config.n),
      order_(order),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "outer.random")) {
  validate(config_);
  owned_.assign(workers, OuterWorkerBlocks(config_.n));
}

bool PointwiseOuterStrategy::on_request(std::uint32_t worker,
                                        Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const TaskId id = order_ == Order::kRandom ? pool_.pop_random_unindexed(rng_)
                                             : pool_.pop_first();
  const auto [i, j] = outer_task_coords(n_div_, id);
  charge_outer_task_blocks(i, j, owned_[worker], out);
  out.tasks.push_back(id);
  return true;
}

}  // namespace hetsched
