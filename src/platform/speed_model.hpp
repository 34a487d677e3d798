// Processor speed models.
//
// The paper draws worker speeds from several distributions (Section 3.4
// and 3.5): uniform intervals such as [10,100] or [100-h, 100+h],
// discrete sets (a few machine classes), and "dynamic" scenarios where a
// worker's speed drifts by up to q percent after every completed task.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hetsched {

/// Draws the initial speed of each worker.
class SpeedModel {
 public:
  virtual ~SpeedModel() = default;
  virtual std::string name() const = 0;
  /// One initial speed; must be > 0.
  virtual double draw(Rng& rng) const = 0;
};

/// Speeds uniform in [lo, hi).
class UniformIntervalSpeeds final : public SpeedModel {
 public:
  UniformIntervalSpeeds(double lo, double hi);
  std::string name() const override;
  double draw(Rng& rng) const override;

 private:
  double lo_, hi_;
};

/// Speeds picked uniformly from a finite set of machine classes.
class DiscreteSetSpeeds final : public SpeedModel {
 public:
  explicit DiscreteSetSpeeds(std::vector<double> speeds);
  std::string name() const override;
  double draw(Rng& rng) const override;

 private:
  std::vector<double> speeds_;
};

/// A two-class platform: a fraction of "accelerator" workers at one
/// speed, the rest at a (slower) baseline — the CPU+GPU hybrid setting
/// the paper's introduction motivates. Draws are Bernoulli, so a
/// p-worker platform holds Binomial(p, fast_fraction) fast workers.
class TwoClassSpeeds final : public SpeedModel {
 public:
  TwoClassSpeeds(double slow, double fast, double fast_fraction);
  std::string name() const override;
  double draw(Rng& rng) const override;

 private:
  double slow_;
  double fast_;
  double fast_fraction_;
};

/// Replays a fixed list of speeds in order (cycling if more draws are
/// requested than provided). Used by the single-draw experiments
/// (Figures 2, 6, 11) where the paper fixes one arbitrary speed vector
/// and sweeps a strategy parameter.
///
/// The replay cursor is internal mutable state: do not call draw() on
/// one instance from several threads. make_platform() does not use it;
/// it replays the list from its start for every platform.
class FixedListSpeeds final : public SpeedModel {
 public:
  explicit FixedListSpeeds(std::vector<double> speeds);
  std::string name() const override;
  double draw(Rng& rng) const override;
  const std::vector<double>& speeds() const noexcept { return speeds_; }

 private:
  std::vector<double> speeds_;
  mutable std::size_t next_ = 0;
};

/// Every worker runs at exactly the same speed.
class HomogeneousSpeeds final : public SpeedModel {
 public:
  explicit HomogeneousSpeeds(double speed = 100.0);
  std::string name() const override;
  double draw(Rng& rng) const override;

 private:
  double speed_;
};

/// How a worker's speed evolves after each completed task.
///
/// The dyn.5 / dyn.20 scenarios multiply the current speed by a factor
/// uniform in [1-q, 1+q] after every task; `max_percent == 0` is the
/// static platform. Speeds are clamped to stay within
/// [base/limit, base*limit] so a long run cannot drift to zero or
/// diverge (the paper's drift is bounded in practice by run length; the
/// clamp documents and enforces that invariant).
class PerturbationModel {
 public:
  PerturbationModel() = default;
  explicit PerturbationModel(double max_percent, double clamp_factor = 4.0);

  bool enabled() const noexcept { return max_percent_ > 0.0; }
  double max_percent() const noexcept { return max_percent_; }

  /// Next speed after one task, given the worker's initial base speed.
  double perturb(double current, double base, Rng& rng) const;

 private:
  double max_percent_ = 0.0;
  double clamp_factor_ = 4.0;
};

}  // namespace hetsched
