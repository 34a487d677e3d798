// Figure series: the outcomes of one compiled campaign (one entry per
// strategy x point) pivoted into the rows of a paper figure.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/campaign.hpp"

namespace hetsched {

/// One x-position of a multi-series figure.
struct SweepPoint {
  double x = 0.0;  // p, beta, heterogeneity h, ... depending on the sweep
  std::map<std::string, Summary> normalized;  // series name -> value
};

/// What a figure's x axis reads from each entry's config.
enum class SweepAxis {
  kWorkers,         // p (Figures 1, 4, 5, 9, 10)
  kBeta,            // -log(phase2) (Figures 6, 11)
  kPhase1Fraction,  // 1 - phase2 (Figure 2)
};

/// Pivots campaign outcomes into one point per distinct x (in order of
/// first appearance) with one series per strategy. With `analysis`,
/// each point also gets an "Analysis" series: the analysis prediction
/// of its 2-phase entry, else of its first entry. The beta and phase-1
/// axes take their x values from the entries with a phase2 value; an
/// entry without one (a strategy that ignores phase2) is placed at
/// every such x. Throws std::invalid_argument when two entries land on
/// the same point and strategy (say, an n grid on a p axis), when a
/// 2-phase entry has no phase2 value on those axes, or when no entry
/// has one.
std::vector<SweepPoint> pivot_sweep(
    const std::vector<CampaignOutcome>& outcomes, SweepAxis axis,
    bool analysis);

/// CSV column order helper: "x" followed by the union of series names
/// (mean and stddev columns per series).
void print_sweep_csv(const std::vector<SweepPoint>& points,
                     const std::string& x_name, std::ostream& out);

}  // namespace hetsched
