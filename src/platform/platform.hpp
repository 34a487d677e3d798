// A heterogeneous master-worker platform: p workers with speeds s_k.
//
// Speed s_k is the number of unit (block) tasks worker k completes per
// time unit; relative speed rs_k = s_k / sum(s_i) drives both the lower
// bounds and the analytic model.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "platform/speed_model.hpp"

namespace hetsched {

class Platform {
 public:
  Platform() = default;
  explicit Platform(std::vector<double> speeds);

  std::size_t size() const noexcept { return speeds_.size(); }
  const std::vector<double>& speeds() const noexcept { return speeds_; }
  double speed(std::size_t k) const noexcept { return speeds_[k]; }

  double total_speed() const noexcept { return total_; }

  /// rs_k = s_k / sum_i s_i; sums to 1.
  std::vector<double> relative_speeds() const;

  /// alpha_k = (sum_{i != k} s_i) / s_k, the paper's per-worker exponent.
  double alpha(std::size_t k) const noexcept;

 private:
  std::vector<double> speeds_;
  double total_ = 0.0;
};

/// Draws a p-worker platform from a speed model. A FixedListSpeeds
/// model gives speeds[k % size] to worker k on every call.
Platform make_platform(const SpeedModel& model, std::size_t p, Rng& rng);

/// A p-worker platform with all speeds equal (the Section 3.6
/// speed-agnostic approximation target).
Platform make_homogeneous_platform(std::size_t p, double speed = 100.0);

}  // namespace hetsched
