#include "platform/platform.hpp"

#include <numeric>
#include <stdexcept>

namespace hetsched {

Platform::Platform(std::vector<double> speeds) : speeds_(std::move(speeds)) {
  if (speeds_.empty()) {
    throw std::invalid_argument("Platform: need at least one worker");
  }
  for (const double s : speeds_) {
    if (!(s > 0.0)) {
      throw std::invalid_argument("Platform: speeds must be positive");
    }
  }
  total_ = std::accumulate(speeds_.begin(), speeds_.end(), 0.0);
}

std::vector<double> Platform::relative_speeds() const {
  std::vector<double> rs(speeds_.size());
  for (std::size_t k = 0; k < speeds_.size(); ++k) rs[k] = speeds_[k] / total_;
  return rs;
}

double Platform::alpha(std::size_t k) const noexcept {
  return (total_ - speeds_[k]) / speeds_[k];
}

Platform make_platform(const SpeedModel& model, std::size_t p, Rng& rng) {
  std::vector<double> speeds(p);
  if (const auto* list = dynamic_cast<const FixedListSpeeds*>(&model)) {
    // Replayed from its start, not through draw()'s cursor: the reps of
    // one experiment share the model across threads, and each must see
    // the same platform.
    const std::vector<double>& values = list->speeds();
    for (std::size_t k = 0; k < p; ++k) speeds[k] = values[k % values.size()];
  } else {
    for (auto& s : speeds) s = model.draw(rng);
  }
  return Platform(std::move(speeds));
}

Platform make_homogeneous_platform(std::size_t p, double speed) {
  return Platform(std::vector<double>(p, speed));
}

}  // namespace hetsched
