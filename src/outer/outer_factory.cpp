#include "outer/outer_factory.hpp"

#include <stdexcept>

#include "outer/adaptive_outer.hpp"
#include "outer/dynamic_outer.hpp"
#include "outer/pointwise_outer.hpp"
#include "steal/work_stealing.hpp"

namespace hetsched {

std::unique_ptr<Strategy> make_outer_strategy(
    const std::string& name, OuterConfig config, std::uint32_t workers,
    std::uint64_t seed, const OuterStrategyOptions& options) {
  if (name == "RandomOuter") {
    return std::make_unique<PointwiseOuterStrategy>(
        config, workers, seed, PointwiseOuterStrategy::Order::kRandom);
  }
  if (name == "SortedOuter") {
    return std::make_unique<PointwiseOuterStrategy>(
        config, workers, seed, PointwiseOuterStrategy::Order::kSorted);
  }
  if (name == "DynamicOuter") {
    return std::make_unique<DynamicOuterStrategy>(config, workers, seed);
  }
  if (name == "DynamicOuter2Phases") {
    return std::make_unique<DynamicOuterStrategy>(
        make_dynamic_outer_2phases(config, workers, seed,
                                   options.phase2_fraction));
  }
  if (name == "WorkStealingOuter") {
    return std::make_unique<WorkStealingOuterStrategy>(config, workers, seed);
  }
  if (name == "AdaptiveOuter") {
    return std::make_unique<AdaptiveOuterStrategy>(config, workers, seed);
  }
  throw std::invalid_argument("unknown outer strategy: " + name);
}

const std::vector<std::string>& outer_strategy_names() {
  static const std::vector<std::string> names = {
      "RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases"};
  return names;
}

}  // namespace hetsched
