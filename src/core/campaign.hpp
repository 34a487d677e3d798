// Declarative experiment campaigns.
//
// A campaign is a named list of experiment configurations executed as a
// batch — entries are claimed from a shared atomic-index work queue by
// a bounded set of worker threads (each experiment is internally
// deterministic, so concurrency cannot change results) — and reported
// as one JSON document. This is the "reproduce everything with one
// command" entry point behind `hetsched_cli campaign`.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace hetsched {

class ProgressReporter;  // obs/progress.hpp

struct CampaignEntry {
  std::string label;  // unique within the campaign
  ExperimentConfig config;
};

struct CampaignOutcome {
  std::string label;
  ExperimentConfig config;
  ExperimentResult result;
};

class Campaign {
 public:
  /// Maps a config to its result; injectable for tests/instrumentation.
  using ExperimentRunner =
      std::function<ExperimentResult(const ExperimentConfig&)>;

  explicit Campaign(std::string name);

  /// Adds one experiment; labels must be unique.
  void add(std::string label, ExperimentConfig config);

  std::size_t size() const noexcept { return entries_.size(); }
  const std::string& name() const noexcept { return name_; }

  /// Runs every entry with run_experiment. Entries are pulled from a
  /// shared work queue, so a slow entry never delays the ones behind
  /// it. A nonzero parallelism is honored exactly (capped at the entry
  /// count); 0 claims workers from the process-wide parallelism budget
  /// (runtime/thread_pool.hpp), which also makes the experiments'
  /// nested rep loops fall back to serial — campaign-level and
  /// rep-level parallelism compose without oversubscription. Outcomes
  /// are returned in insertion order regardless of completion order.
  ///
  /// `progress` (optional, not owned): every entry's reps are
  /// registered up front (expect_reps) so the ETA covers the whole
  /// campaign, entry labels appear in heartbeats while executing, and
  /// each entry's config is run with the reporter injected. Progress is
  /// wall-clock-only telemetry; results are bit-identical with or
  /// without it.
  std::vector<CampaignOutcome> run(unsigned parallelism = 0,
                                   ProgressReporter* progress = nullptr) const;

  /// Same scheduling, custom experiment runner.
  std::vector<CampaignOutcome> run_with(
      const ExperimentRunner& runner, unsigned parallelism = 0,
      ProgressReporter* progress = nullptr) const;

 private:
  std::string name_;
  std::vector<CampaignEntry> entries_;
};

/// Serializes campaign outcomes as one JSON document.
void write_campaign_json(std::ostream& out, const std::string& name,
                         const std::vector<CampaignOutcome>& outcomes);

}  // namespace hetsched
