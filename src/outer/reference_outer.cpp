#include "outer/reference_outer.hpp"

#include <stdexcept>

namespace hetsched {

ReferenceOuterStrategy::ReferenceOuterStrategy(OuterConfig config,
                                               std::uint32_t workers,
                                               std::uint64_t seed,
                                               std::string_view rng_tag)
    : config_(config),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, rng_tag)) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("ReferenceOuterStrategy: need >= 1 worker");
  }
  state_.resize(workers);
  for (auto& w : state_) {
    w.owned_a = DynamicBitset(config_.n);
    w.owned_b = DynamicBitset(config_.n);
    w.unknown_i.resize(config_.n);
    w.unknown_j.resize(config_.n);
    for (std::uint32_t v = 0; v < config_.n; ++v) {
      w.unknown_i[v] = v;
      w.unknown_j[v] = v;
    }
  }
}

bool ReferenceOuterStrategy::requeue(const std::vector<TaskId>& tasks) {
  bool all_inserted = true;
  for (const TaskId id : tasks) all_inserted &= pool_.insert(id);
  return all_inserted;
}

void ReferenceOuterStrategy::ship(std::uint32_t worker, Operand op,
                                  std::uint32_t index, Assignment& out) {
  WorkerState& w = state_[worker];
  DynamicBitset& owned = op == Operand::kVecA ? w.owned_a : w.owned_b;
  if (owned.set_if_clear(index)) out.blocks.push_back(BlockRef{op, index, 0});
}

bool ReferenceOuterStrategy::on_request(std::uint32_t worker,
                                        Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  WorkerState& w = state_[worker];

  if (w.unknown_i.empty() || w.unknown_j.empty() || !extends(worker)) {
    const TaskId id = pool_.pop_random(rng_);
    const auto [i, j] = outer_task_coords(config_.n, id);
    ship(worker, Operand::kVecA, i, out);
    ship(worker, Operand::kVecB, j, out);
    out.tasks.push_back(id);
    return true;
  }

  // Acquisition order: i, then j; a_i, then b_j.
  const std::uint32_t i = rng_.take_uniform(w.unknown_i);
  const std::uint32_t j = rng_.take_uniform(w.unknown_j);
  ship(worker, Operand::kVecA, i, out);
  ship(worker, Operand::kVecB, j, out);

  const auto take = [&](std::uint32_t ti, std::uint32_t tj) {
    const TaskId id = outer_task_id(config_.n, ti, tj);
    if (pool_.remove(id)) out.tasks.push_back(id);
  };
  for (const std::uint32_t j2 : w.known_j) take(i, j2);
  for (const std::uint32_t i2 : w.known_i) take(i2, j);
  take(i, j);

  w.known_i.push_back(i);
  w.known_j.push_back(j);
  on_step(out.tasks.size());
  return true;
}

}  // namespace hetsched
