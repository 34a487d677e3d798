// Strategy factory for the outer-product kernel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "outer/outer_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

/// Extra knobs only some strategies use.
struct OuterStrategyOptions {
  /// For DynamicOuter2Phases: fraction of tasks served by phase 2
  /// (typically exp(-beta)). Ignored by the other strategies.
  double phase2_fraction = 0.0;
  /// Ignored; kept only because bench/e2e/workload.cpp assigns it.
  std::uint32_t lanes = 1;
};

/// Builds one of: "RandomOuter", "SortedOuter", "DynamicOuter",
/// "DynamicOuter2Phases", or the extension "WorkStealingOuter".
/// Throws std::invalid_argument otherwise.
std::unique_ptr<Strategy> make_outer_strategy(
    const std::string& name, OuterConfig config, std::uint32_t workers,
    std::uint64_t seed, const OuterStrategyOptions& options = {});

/// All outer strategy names in the paper's presentation order.
const std::vector<std::string>& outer_strategy_names();

}  // namespace hetsched
