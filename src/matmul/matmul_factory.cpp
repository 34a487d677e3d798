#include "matmul/matmul_factory.hpp"

#include <stdexcept>

#include "matmul/adaptive_matmul.hpp"
#include "matmul/dynamic_matrix.hpp"
#include "matmul/pointwise_matmul.hpp"
#include "steal/work_stealing.hpp"

namespace hetsched {

std::unique_ptr<Strategy> make_matmul_strategy(
    const std::string& name, MatmulConfig config, std::uint32_t workers,
    std::uint64_t seed, const MatmulStrategyOptions& options) {
  if (name == "RandomMatrix") {
    return std::make_unique<PointwiseMatmulStrategy>(
        config, workers, seed, PointwiseMatmulStrategy::Order::kRandom);
  }
  if (name == "SortedMatrix") {
    return std::make_unique<PointwiseMatmulStrategy>(
        config, workers, seed, PointwiseMatmulStrategy::Order::kSorted);
  }
  if (name == "DynamicMatrix") {
    return std::make_unique<DynamicMatrixStrategy>(config, workers, seed);
  }
  if (name == "DynamicMatrix2Phases") {
    return std::make_unique<DynamicMatrixStrategy>(
        make_dynamic_matrix_2phases(config, workers, seed,
                                    options.phase2_fraction));
  }
  if (name == "AdaptiveMatmul") {
    return std::make_unique<AdaptiveMatmulStrategy>(config, workers, seed);
  }
  if (name == "WorkStealingMatmul") {
    return std::make_unique<WorkStealingMatmulStrategy>(config, workers, seed);
  }
  throw std::invalid_argument("unknown matmul strategy: " + name);
}

const std::vector<std::string>& matmul_strategy_names() {
  static const std::vector<std::string> names = {
      "RandomMatrix", "SortedMatrix", "DynamicMatrix", "DynamicMatrix2Phases"};
  return names;
}

}  // namespace hetsched
