// Speed-aware per-worker phase switching (ablation).
//
// DynamicOuter2Phases switches *globally* when e^{-beta} N^2 tasks
// remain — deliberately speed-agnostic (Section 3.6). The analysis
// actually derives a per-worker switch point x_k^2 = beta rs_k -
// (beta^2/2) rs_k^2; this variant applies it directly, letting each
// worker leave the data-aware phase as soon as it has covered its own
// share. Comparing the two quantifies what knowing the speeds buys
// (bench/abl_switch_rule): per the paper's claim, very little.
#pragma once

#include <cstdint>
#include <vector>

#include "outer/reference_outer.hpp"

namespace hetsched {

class PerWorkerSwitchOuterStrategy final : public ReferenceOuterStrategy {
 public:
  /// `speeds` are the actual worker speeds (this variant is speed-aware
  /// by design); beta as in the two-phase analysis.
  PerWorkerSwitchOuterStrategy(OuterConfig config,
                               const std::vector<double>& speeds,
                               std::uint64_t seed, double beta);

  std::string name() const override { return "DynamicOuterPerWorkerSwitch"; }

  /// Worker k's switch threshold on |I_k| (block count).
  std::uint32_t switch_rows(std::uint32_t worker) const {
    return switch_rows_[worker];
  }

 private:
  bool extends(std::uint32_t worker) const override {
    return known_rows(worker) < switch_rows_[worker];
  }

  std::vector<std::uint32_t> switch_rows_;
};

}  // namespace hetsched
