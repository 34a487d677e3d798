#include "rect/rect_strategies.hpp"

#include <cmath>
#include <stdexcept>

namespace hetsched {

DynamicRectStrategy::DynamicRectStrategy(RectConfig config,
                                         std::uint32_t workers,
                                         std::uint64_t seed,
                                         std::uint64_t phase2_tasks)
    : config_(config),
      phase2_tasks_(phase2_tasks),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "rect.dynamic")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("DynamicRectStrategy: need >= 1 worker");
  }
  state_.resize(workers);
  for (auto& w : state_) {
    w.blocks = OuterWorkerBlocks(config_.rows, config_.cols);
    w.unknown_i.resize(config_.rows);
    w.unknown_j.resize(config_.cols);
    for (std::uint32_t v = 0; v < config_.rows; ++v) w.unknown_i[v] = v;
    for (std::uint32_t v = 0; v < config_.cols; ++v) w.unknown_j[v] = v;
  }
}

std::pair<double, double> DynamicRectStrategy::coverage(
    std::uint32_t worker) const {
  const WorkerState& w = state_[worker];
  return {static_cast<double>(w.known_i.size()) / config_.rows,
          static_cast<double>(w.known_j.size()) / config_.cols};
}

bool DynamicRectStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  if (in_phase2()) return random_request(worker, out);
  return dynamic_request(worker, out);
}

bool DynamicRectStrategy::dynamic_request(std::uint32_t worker, Assignment& out) {
  WorkerState& w = state_[worker];
  if (w.unknown_i.empty() && w.unknown_j.empty()) {
    return random_request(worker, out);
  }

  // Proportional acquisition: take the dimension whose coverage
  // fraction lags (rows when |I| C <= |J| R), so |I|/R tracks |J|/C.
  const bool rows_lag =
      static_cast<std::uint64_t>(w.known_i.size()) * config_.cols <=
      static_cast<std::uint64_t>(w.known_j.size()) * config_.rows;
  const bool take_row =
      !w.unknown_i.empty() && (rows_lag || w.unknown_j.empty());

  auto try_take = [&](std::uint32_t ti, std::uint32_t tj) {
    const TaskId id = rect_task_id(config_, ti, tj);
    if (pool_.remove(id)) out.tasks.push_back(id);
  };

  if (take_row) {
    const std::uint32_t i = rng_.take_uniform(w.unknown_i);
    out.blocks.push_back(BlockRef{Operand::kVecA, i, 0});
    w.blocks.owned_a.set(i);
    for (const std::uint32_t j2 : w.known_j) try_take(i, j2);
    w.known_i.push_back(i);
  } else {
    const std::uint32_t j = rng_.take_uniform(w.unknown_j);
    out.blocks.push_back(BlockRef{Operand::kVecB, j, 0});
    w.blocks.owned_b.set(j);
    for (const std::uint32_t i2 : w.known_i) try_take(i2, j);
    w.known_j.push_back(j);
  }
  return true;
}

bool DynamicRectStrategy::random_request(std::uint32_t worker, Assignment& out) {
  if (pool_.empty()) return false;
  const TaskId id = pool_.pop_random(rng_);
  const auto [i, j] = rect_task_coords(config_, id);
  charge_outer_task_blocks(i, j, state_[worker].blocks, out);
  out.tasks.push_back(id);
  return true;
}

PointwiseRectStrategy::PointwiseRectStrategy(RectConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed, Order order)
    : config_(config),
      order_(order),
      pool_(config.total_tasks()),
      rng_(derive_stream(seed, "rect.pointwise")) {
  validate(config_);
  if (workers == 0) {
    throw std::invalid_argument("PointwiseRectStrategy: need >= 1 worker");
  }
  owned_.assign(workers, OuterWorkerBlocks(config_.rows, config_.cols));
}

bool PointwiseRectStrategy::on_request(std::uint32_t worker, Assignment& out) {
  out.clear();
  if (pool_.empty()) return false;
  const TaskId id =
      order_ == Order::kRandom ? pool_.pop_random(rng_) : pool_.pop_first();
  const auto [i, j] = rect_task_coords(config_, id);
  charge_outer_task_blocks(i, j, owned_[worker], out);
  out.tasks.push_back(id);
  return true;
}

std::unique_ptr<Strategy> make_rect_strategy(const std::string& name,
                                             RectConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             double phase2_fraction) {
  if (name == "RandomRect") {
    return std::make_unique<PointwiseRectStrategy>(
        config, workers, seed, PointwiseRectStrategy::Order::kRandom);
  }
  if (name == "SortedRect") {
    return std::make_unique<PointwiseRectStrategy>(
        config, workers, seed, PointwiseRectStrategy::Order::kSorted);
  }
  if (name == "DynamicRect") {
    return std::make_unique<DynamicRectStrategy>(config, workers, seed);
  }
  if (name == "DynamicRect2Phases") {
    if (phase2_fraction < 0.0 || phase2_fraction > 1.0) {
      throw std::invalid_argument(
          "make_rect_strategy: phase2_fraction in [0, 1]");
    }
    const auto tasks = static_cast<std::uint64_t>(std::llround(
        phase2_fraction * static_cast<double>(config.total_tasks())));
    return std::make_unique<DynamicRectStrategy>(config, workers, seed, tasks);
  }
  throw std::invalid_argument("unknown rect strategy: " + name);
}

}  // namespace hetsched
