#include "obs/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "platform/platform.hpp"

namespace hetsched {

TrajectoryModel::TrajectoryModel(Kernel kernel,
                                 const std::vector<double>& speeds,
                                 std::uint32_t n_blocks) {
  const Platform platform(speeds);
  workers_ = platform.size();
  const double n = static_cast<double>(n_blocks);
  const double total_tasks =
      kernel == Kernel::kOuter ? n * n : n * n * n;
  total_time_ = total_tasks / platform.total_speed();
  if (kernel == Kernel::kOuter) {
    outer_.emplace(platform.relative_speeds(), n_blocks);
  } else {
    matmul_.emplace(platform.relative_speeds(), n_blocks);
  }
}

double TrajectoryModel::g(std::size_t k, double x) const {
  return outer_ ? outer_->g(k, x) : matmul_->g(k, x);
}

double TrajectoryModel::time_fraction(std::size_t k, double x) const {
  return outer_ ? outer_->time_fraction(k, x) : matmul_->time_fraction(k, x);
}

double TrajectoryModel::worker_x(std::size_t k, double t) const {
  const double target = std::clamp(t / total_time_, 0.0, 1.0);
  if (target >= 1.0) return 1.0;
  // time_fraction(k, x) is continuous and strictly increasing on
  // [0, 1] with range [0, 1): bisect to invert.
  double lo = 0.0, hi = 1.0;
  for (int iter = 0; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (time_fraction(k, mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double TrajectoryModel::unmarked_fraction(double t) const {
  if (t >= total_time_) return 0.0;
  double sum = 0.0;
  for (std::size_t k = 0; k < workers_; ++k) {
    sum += g(k, worker_x(k, t));
  }
  return std::clamp(sum / static_cast<double>(workers_), 0.0, 1.0);
}

OdeDivergence ode_divergence(Kernel kernel, const std::vector<double>& speeds,
                             std::uint32_t n_blocks,
                             std::span<const double> times,
                             std::span<const double> unmarked,
                             double support_min) {
  if (times.size() != unmarked.size()) {
    throw std::invalid_argument(
        "ode_divergence: one unmarked fraction per sample time");
  }
  const TrajectoryModel model(kernel, speeds, n_blocks);
  OdeDivergence out;
  double sum = 0.0;
  double prev_t = 0.0;
  double prev_diff = 0.0;
  bool prev_on_support = false;
  for (std::size_t row = 0; row < times.size(); ++row) {
    const double t = times[row];
    const double ode = model.unmarked_fraction(t);
    const bool on_support = ode >= support_min;
    const double diff = std::abs(unmarked[row] - ode);
    if (on_support) {
      out.max = std::max(out.max, diff);
      sum += diff;
      ++out.support_samples;
      if (prev_on_support) {
        out.integrated += 0.5 * (diff + prev_diff) * (t - prev_t);
      }
    }
    prev_t = t;
    prev_diff = diff;
    prev_on_support = on_support;
  }
  if (out.support_samples > 0) {
    out.mean = sum / static_cast<double>(out.support_samples);
  }
  return out;
}

}  // namespace hetsched
