#include "core/figure.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <stdexcept>

#include "common/csv.hpp"

namespace hetsched {

namespace {

double axis_value(const ExperimentConfig& config, SweepAxis axis) {
  if (axis == SweepAxis::kWorkers) return config.p;
  if (!config.phase2_fraction.has_value()) {
    throw std::invalid_argument("pivot_sweep: entry " + config.strategy +
                                " has no phase2 value for a beta or "
                                "phase-1 axis");
  }
  const double phase2 = *config.phase2_fraction;
  return axis == SweepAxis::kBeta ? -std::log(phase2) : 1.0 - phase2;
}

}  // namespace

std::vector<SweepPoint> pivot_sweep(
    const std::vector<CampaignOutcome>& outcomes, SweepAxis axis,
    bool analysis) {
  std::vector<SweepPoint> points;
  // Per point, the entry whose analysis prediction the point reports.
  std::vector<const CampaignOutcome*> analysis_from;
  for (const CampaignOutcome& outcome : outcomes) {
    const double x = axis_value(outcome.config, axis);
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
