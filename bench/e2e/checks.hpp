// Output checks of the end-to-end benchmark. Every campaign entry and
// every DAG policy of a trial is one checked entry; an entry fails when
// any check on it fails, and failed entries / attempted entries is the
// failed_frac metric.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "dag/dag_engine.hpp"
#include "dag/task_graph.hpp"
#include "platform/platform.hpp"

namespace e2e {

/// One checked entry of one trial. `key` is "<campaign>/<label>" or
/// "dag/<policy>"; `value` is the entry's mean normalized volume (mean
/// tile transfers for a DAG policy), the number the goldens pin.
struct EntryCheck {
  std::string key;
  double value = 0.0;
  bool is_volume = false;  // value feeds the norm_volume metric
  std::vector<std::string> errors;
};

/// Checks one rep of a campaign entry: every task of the instance done,
/// normalized volume >= 1. Returns the failed checks.
std::vector<std::string> check_rep(const hetsched::ExperimentConfig& config,
                                   const hetsched::RepOutcome& rep);

/// Checks one campaign entry: check_rep on every rep, and a 2-phase
/// entry's mean within 5% of the analysis ratio.
EntryCheck check_entry(const std::string& campaign,
                       const hetsched::CampaignOutcome& outcome);

/// Checks one DAG rep: every task done, completion_order a topological
/// order of the graph, makespan >= the dependency-aware lower bound.
/// Returns the failed checks.
std::vector<std::string> check_dag_rep(const hetsched::TaskGraph& graph,
                                       const hetsched::Platform& platform,
                                       const hetsched::DagSimResult& result);

struct GoldenSummary {
  std::size_t entries = 0;
  std::size_t within = 0;  // within 1% of the golden value
  std::size_t exact = 0;   // bit-equal, for information only
};

/// Compares every entry value with the golden file at `path`. An entry
/// off by more than 1%, or absent from the file, gets an error. The 1%
/// tolerance absorbs re-derived RNG orders (a legitimate change of
/// draw sequence moves a mean by well under 1%) and still catches
/// behaviour bugs, which move it by far more.
GoldenSummary check_golden(const std::string& path,
                           std::vector<EntryCheck>& entries);

/// Writes the golden file for `entries` (17 significant digits).
void write_golden(const std::string& path, const std::string& workload,
                  const std::vector<EntryCheck>& entries);

}  // namespace e2e
