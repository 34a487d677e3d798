// Integration anchor for the observability subsystem: the sampled
// unmarked-task trajectory of a data-aware run must track the ODE
// solution of the paper's analysis (Lemmas 1/2 for the outer product,
// Lemmas 7/8 for matmul).
//
// Stated tolerance: the fluid model ignores discreteness (finite
// batches, integer tasks) and worker asynchrony, which at n = 100 /
// p = 20 leaves a max pointwise gap well under 0.08 over the region
// where the prediction still has mass (>= 0.02); the matmul model at
// n = 40 stays under 0.12. Empirical max gaps are ~0.045 and ~0.075 —
// the asserted bounds leave seed-to-seed headroom without losing the
// ability to catch a broken time mapping (which produces gaps > 0.3).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "obs/instrument.hpp"
#include "obs/overlay.hpp"

namespace hetsched {
namespace {

OdeDivergence overlay_divergence(const ExperimentConfig& config) {
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), {}, rep);
  const OdeDivergence div =
      ode_divergence(config.kernel, rep.outcome.speeds, config.n,
                     rep.sampler.times(),
                     rep.sampler.series("unmarked_fraction"));
  EXPECT_GT(div.support_samples, 20u) << "too few comparable samples";
  return div;
}

TEST(TrajectoryOverlay, DynamicOuterTracksOdePrediction) {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter";
  config.n = 100;
  config.p = 20;
  config.seed = 20140623;

  const OdeDivergence div = overlay_divergence(config);
  EXPECT_LT(div.max, 0.08);
  EXPECT_LT(div.mean, 0.04);
}

TEST(TrajectoryOverlay, DynamicMatrixTracksOdePrediction) {
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix";
  config.n = 40;
  config.p = 20;
  config.seed = 20140623;

  const OdeDivergence div = overlay_divergence(config);
  EXPECT_LT(div.max, 0.12);
  EXPECT_LT(div.mean, 0.05);
}

TEST(TrajectoryModel, BoundaryBehaviour) {
  // Homogeneous platform, outer kernel: closed-form boundary values.
  const std::vector<double> speeds(10, 50.0);
  const TrajectoryModel model(Kernel::kOuter, speeds, 50);
  EXPECT_NEAR(model.unmarked_fraction(0.0), 1.0, 1e-9);
  EXPECT_NEAR(model.unmarked_fraction(model.total_time()), 0.0, 1e-6);
  EXPECT_EQ(model.unmarked_fraction(model.total_time() * 2.0), 0.0);
  // Strictly decreasing in between.
  double prev = 1.0;
  for (int i = 1; i <= 10; ++i) {
    const double u =
        model.unmarked_fraction(model.total_time() * 0.1 * i);
    EXPECT_LT(u, prev + 1e-12);
    prev = u;
  }
}

// A series offset from the model by a constant shows that constant as
// its max and mean gap, over exactly the samples on the support.
TEST(OdeDivergence, ConstantOffsetIsTheMaxAndMeanGap) {
  const std::vector<double> speeds(10, 50.0);
  const TrajectoryModel model(Kernel::kOuter, speeds, 50);
  std::vector<double> times, unmarked;
  std::size_t on_support = 0;
  for (int i = 0; i <= 20; ++i) {
    times.push_back(model.total_time() * 0.05 * i);
    const double u = model.unmarked_fraction(times.back());
    unmarked.push_back(u + 0.01);
    if (u >= kOdeSupportMin) ++on_support;
  }
  const OdeDivergence div =
      ode_divergence(Kernel::kOuter, speeds, 50, times, unmarked);
  EXPECT_NEAR(div.max, 0.01, 1e-12);
  EXPECT_NEAR(div.mean, 0.01, 1e-12);
  EXPECT_EQ(div.support_samples, on_support);
  EXPECT_GT(on_support, 5u);
  EXPECT_LT(on_support, times.size());
  // The support is a prefix: on_support - 1 steps of 0.05 T each.
  EXPECT_NEAR(div.integrated,
              0.01 * 0.05 * model.total_time() *
                  static_cast<double>(on_support - 1),
              1e-9);
  unmarked.pop_back();
  EXPECT_THROW(ode_divergence(Kernel::kOuter, speeds, 50, times, unmarked),
               std::invalid_argument);
}

}  // namespace
}  // namespace hetsched
