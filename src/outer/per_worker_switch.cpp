#include "outer/per_worker_switch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hetsched {

PerWorkerSwitchOuterStrategy::PerWorkerSwitchOuterStrategy(
    OuterConfig config, const std::vector<double>& speeds, std::uint64_t seed,
    double beta)
    : ReferenceOuterStrategy(config,
                             static_cast<std::uint32_t>(speeds.size()), seed,
                             "outer.per_worker") {
  if (!(beta > 0.0)) {
    throw std::invalid_argument(
        "PerWorkerSwitchOuterStrategy: beta must be positive");
  }
  double total = 0.0;
  for (const double s : speeds) {
    if (!(s > 0.0)) {
      throw std::invalid_argument(
          "PerWorkerSwitchOuterStrategy: speeds must be positive");
    }
    total += s;
  }

  switch_rows_.resize(speeds.size());
  for (std::size_t k = 0; k < speeds.size(); ++k) {
    // Lemma 3's per-worker switch point: x_k^2 = beta rs - (beta^2/2) rs^2.
    // The expression is valid only for beta <= 1/rs (see
    // OuterAnalysis::validity_cap); a very fast worker saturates at the
    // cap, where x^2 = 1/2.
    const double rs = speeds[k] / total;
    const double beta_k = std::min(beta, 1.0 / rs);
    const double x2 =
        std::clamp(beta_k * rs - 0.5 * beta_k * beta_k * rs * rs, 0.0, 1.0);
    switch_rows_[k] = static_cast<std::uint32_t>(
        std::ceil(std::sqrt(x2) * static_cast<double>(config.n)));
  }
}

}  // namespace hetsched
