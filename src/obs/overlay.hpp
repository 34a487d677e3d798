// ODE-trajectory predictions in engine time units, and the one
// comparison of a sampled run against them.
//
// The analysis parameterizes the data-aware phase by worker knowledge
// x, not time; Lemma 2 (outer) / Lemma 8 (matmul) gives the elapsed
// time at knowledge x:  t_k(x) * sum_i s_i = T (1 - (1 - x^d)^{a_k+1})
// with T the task count and d the kernel dimension. Inverting it
// (monotone, so bisection) yields x_k(t), and Lemma 1/7 then predicts
// the unmarked-task fraction u(t) = g_k(x_k(t)) — worker-independent
// at first order; we average over workers to damp the O(rs) error on
// heterogeneous draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/matmul_analysis.hpp"
#include "analysis/outer_analysis.hpp"
#include "core/experiment.hpp"

namespace hetsched {

class TrajectoryModel {
 public:
  /// `speeds` are absolute engine speeds (tasks per time unit), so
  /// predictions land directly on the simulated clock.
  TrajectoryModel(Kernel kernel, const std::vector<double>& speeds,
                  std::uint32_t n_blocks);

  /// Time at which the platform has processed every task: T / sum s_i.
  double total_time() const noexcept { return total_time_; }

  /// Predicted unmarked-task fraction at simulated time t, averaged
  /// over workers; clamped to [0, 1] and 0 past total_time().
  double unmarked_fraction(double t) const;

 private:
  /// Knowledge fraction x_k(t) of worker k (inverted Lemma 2/8).
  double worker_x(std::size_t k, double t) const;
  double g(std::size_t k, double x) const;
  double time_fraction(std::size_t k, double x) const;

  std::size_t workers_;
  double total_time_;
  std::optional<OuterAnalysis> outer_;
  std::optional<MatmulAnalysis> matmul_;
};

/// The first-order model loses meaning once nearly everything is
/// marked: below this predicted unmarked fraction both curves sit on
/// the axis and |sim - model| is noise.
inline constexpr double kOdeSupportMin = 0.02;

/// |sim - model| over the samples where the model predicts at least
/// `support_min` (the support).
struct OdeDivergence {
  double max = 0.0;
  /// Trapezoid integral of |sim - model| dt over consecutive samples
  /// that are both on the support.
  double integrated = 0.0;
  double mean = 0.0;  // 0 when no sample is on the support
  std::size_t support_samples = 0;
};

/// Compares a sampled unmarked-fraction series (`unmarked[i]` at
/// simulated time `times[i]`) with the TrajectoryModel of the run.
OdeDivergence ode_divergence(Kernel kernel, const std::vector<double>& speeds,
                             std::uint32_t n_blocks,
                             std::span<const double> times,
                             std::span<const double> unmarked,
                             double support_min = kOdeSupportMin);

}  // namespace hetsched
