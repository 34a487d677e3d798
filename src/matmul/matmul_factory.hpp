// Strategy factory for the matrix-multiplication kernel.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "matmul/matmul_problem.hpp"
#include "sim/strategy.hpp"

namespace hetsched {

struct MatmulStrategyOptions {
  /// For DynamicMatrix2Phases: fraction of tasks served by phase 2
  /// (typically exp(-beta)). Ignored by the other strategies.
  double phase2_fraction = 0.0;
  /// Ignored; kept only because bench/e2e/workload.cpp assigns it.
  std::uint32_t lanes = 1;
};

/// Builds one of: "RandomMatrix", "SortedMatrix", "DynamicMatrix",
/// "DynamicMatrix2Phases", or the extension "WorkStealingMatmul".
/// Throws std::invalid_argument otherwise.
std::unique_ptr<Strategy> make_matmul_strategy(
    const std::string& name, MatmulConfig config, std::uint32_t workers,
    std::uint64_t seed, const MatmulStrategyOptions& options = {});

/// All matmul strategy names in the paper's presentation order.
const std::vector<std::string>& matmul_strategy_names();

}  // namespace hetsched
