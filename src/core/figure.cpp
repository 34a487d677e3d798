#include "core/figure.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>

#include "common/csv.hpp"

namespace hetsched {

namespace {

// An entry's x on a beta or phase-1 axis, from its phase2 value.
double phase2_x(double phase2, SweepAxis axis) {
  return axis == SweepAxis::kBeta ? -std::log(phase2) : 1.0 - phase2;
}

}  // namespace

std::vector<SweepPoint> pivot_sweep(
    const std::vector<CampaignOutcome>& outcomes, SweepAxis axis,
    bool analysis) {
  // A beta or phase-1 axis takes its x values from the entries that
  // carry phase2. An entry of a strategy that ignores phase2 has none:
  // it is one experiment, placed at every such x.
  std::vector<double> phase2_xs;
  if (axis != SweepAxis::kWorkers) {
    for (const CampaignOutcome& outcome : outcomes) {
      if (!outcome.config.phase2_fraction.has_value()) continue;
      const double x = phase2_x(*outcome.config.phase2_fraction, axis);
      if (std::find(phase2_xs.begin(), phase2_xs.end(), x) ==
          phase2_xs.end()) {
        phase2_xs.push_back(x);
      }
    }
    if (phase2_xs.empty()) {
      throw std::invalid_argument("pivot_sweep: no entry has a phase2 value "
                                  "for a beta or phase-1 axis");
    }
  }

  std::vector<SweepPoint> points;
  // Per point, the entry whose analysis prediction the point reports.
  std::vector<const CampaignOutcome*> analysis_from;
  const auto place = [&](const CampaignOutcome& outcome, double x) {
    const auto it = std::find_if(points.begin(), points.end(),
                                 [x](const SweepPoint& p) { return p.x == x; });
    const auto i = static_cast<std::size_t>(it - points.begin());
    if (it == points.end()) {
      points.push_back(SweepPoint{x, {}});
      analysis_from.push_back(&outcome);
    } else if (is_two_phase(outcome.config.strategy) &&
               !is_two_phase(analysis_from[i]->config.strategy)) {
      analysis_from[i] = &outcome;
    }
    if (!points[i].normalized
             .emplace(outcome.config.strategy, outcome.result.normalized)
             .second) {
      throw std::invalid_argument("pivot_sweep: two entries of " +
                                  outcome.config.strategy + " at x = " +
                                  CsvWriter::format(x));
    }
  };
  for (const CampaignOutcome& outcome : outcomes) {
    const ExperimentConfig& config = outcome.config;
    if (axis == SweepAxis::kWorkers) {
      place(outcome, config.p);
    } else if (config.phase2_fraction.has_value()) {
      place(outcome, phase2_x(*config.phase2_fraction, axis));
    } else if (is_two_phase(config.strategy)) {
      throw std::invalid_argument("pivot_sweep: entry " + config.strategy +
                                  " has no phase2 value for a beta or "
                                  "phase-1 axis");
    } else {
      for (const double x : phase2_xs) place(outcome, x);
    }
  }
  if (analysis) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      points[i].normalized["Analysis"] =
          analysis_from[i]->result.analysis_ratio;
    }
  }
  return points;
}

void print_sweep_csv(const std::vector<SweepPoint>& points,
                     const std::string& x_name, std::ostream& out) {
  std::set<std::string> series;
  for (const auto& point : points) {
    for (const auto& [name, _] : point.normalized) series.insert(name);
  }
  std::vector<std::string> columns{x_name};
  for (const auto& name : series) {
    columns.push_back(name + ".mean");
    columns.push_back(name + ".sd");
  }
  CsvWriter csv(out, columns);
  for (const auto& point : points) {
    std::vector<std::string> cells{CsvWriter::format(point.x)};
    for (const auto& name : series) {
      const auto it = point.normalized.find(name);
      if (it == point.normalized.end()) {
        cells.push_back("");
        cells.push_back("");
      } else {
        cells.push_back(CsvWriter::format(it->second.mean));
        cells.push_back(CsvWriter::format(it->second.stddev));
      }
    }
    csv.row(cells);
  }
}

}  // namespace hetsched
