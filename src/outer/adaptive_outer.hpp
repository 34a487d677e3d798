// Self-tuning two-phase scheduling: no beta, no model, no speeds.
//
// The paper chooses the phase switch offline by minimizing the ODE
// model over beta. This variant derives the switch *online* from the
// break-even economics the model encodes: a data-aware step costs 2
// blocks and enables E tasks (E = 2 x N g(x) in the model), while the
// random phase pays about 2/(1+x) <= 2 blocks per task. Data-aware
// acquisition therefore stops paying once E falls to ~(1+x), i.e. a
// couple of tasks per step. The strategy tracks the realized tasks-per-
// step over a sliding window of recent data-aware steps and switches to
// random service when the windowed average drops below `threshold`
// (default 1.5, the model's break-even for mid-range x).
//
// bench/abl_adaptive shows this model-free rule lands within a few
// percent of the analysis-tuned DynamicOuter2Phases.
#pragma once

#include <cstdint>
#include <deque>

#include "outer/reference_outer.hpp"

namespace hetsched {

class AdaptiveOuterStrategy final : public ReferenceOuterStrategy {
 public:
  /// threshold: switch when the windowed tasks-per-step average drops
  /// below this; window: number of recent data-aware steps averaged
  /// (0 = auto: 2 * workers).
  AdaptiveOuterStrategy(OuterConfig config, std::uint32_t workers,
                        std::uint64_t seed, double threshold = 1.5,
                        std::uint32_t window = 0);

  std::string name() const override { return "AdaptiveOuter"; }

  /// Whether the strategy has switched to the random phase.
  bool switched() const noexcept { return switched_; }

  /// Tasks remaining when the switch happened (0 if not yet switched);
  /// comparable to the analysis's e^{-beta} N^2.
  std::uint64_t tasks_at_switch() const noexcept { return tasks_at_switch_; }

 private:
  bool extends(std::uint32_t) const override { return !switched_; }
  void on_step(std::size_t tasks_gained) override;

  double threshold_;
  std::uint32_t window_;
  std::deque<std::uint32_t> recent_gains_;  // tasks per recent step
  std::uint64_t recent_sum_ = 0;
  bool armed_ = false;  // set once efficiency first exceeds the threshold
  bool switched_ = false;
  std::uint64_t tasks_at_switch_ = 0;
};

}  // namespace hetsched
