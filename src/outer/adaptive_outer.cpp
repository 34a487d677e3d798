#include "outer/adaptive_outer.hpp"

#include <stdexcept>

namespace hetsched {

AdaptiveOuterStrategy::AdaptiveOuterStrategy(OuterConfig config,
                                             std::uint32_t workers,
                                             std::uint64_t seed,
                                             double threshold,
                                             std::uint32_t window)
    : ReferenceOuterStrategy(config, workers, seed, "outer.adaptive"),
      threshold_(threshold),
      window_(window == 0 ? 2 * workers : window) {
  if (!(threshold > 0.0)) {
    throw std::invalid_argument(
        "AdaptiveOuterStrategy: threshold must be positive");
  }
}

void AdaptiveOuterStrategy::on_step(std::size_t tasks_gained) {
  recent_gains_.push_back(static_cast<std::uint32_t>(tasks_gained));
  recent_sum_ += tasks_gained;
  if (recent_gains_.size() > window_) {
    recent_sum_ -= recent_gains_.front();
    recent_gains_.pop_front();
  }
  if (recent_gains_.size() < window_) return;
  const double average = static_cast<double>(recent_sum_) /
                         static_cast<double>(window_);
  // Efficiency starts at ~1 task/step (the first acquisition enables
  // only the corner task), climbs as knowledge compounds, then decays
  // as competition marks the L-shapes. Arm on the way up so the initial
  // transient cannot trigger a premature switch; fire on the way down.
  if (!armed_) {
    if (average > threshold_) armed_ = true;
    return;
  }
  if (average < threshold_) {
    switched_ = true;
    tasks_at_switch_ = unassigned_tasks();
  }
}

}  // namespace hetsched
