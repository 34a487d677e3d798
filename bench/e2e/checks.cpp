#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "workload.hpp"

namespace e2e {

using namespace hetsched;

std::vector<std::string> check_rep(const ExperimentConfig& config,
                                   const RepOutcome& rep) {
  std::vector<std::string> errors;
  const std::uint64_t tasks = instance_tasks(config);
  if (rep.sim.total_tasks_done != tasks) {
    errors.push_back(std::to_string(rep.sim.total_tasks_done) +
                     " tasks done of " + std::to_string(tasks));
  }
  if (!(rep.normalized >= 1.0)) {
    errors.push_back("normalized volume " + std::to_string(rep.normalized) +
                     " < 1");
  }
  return errors;
}

EntryCheck check_entry(const std::string& campaign,
                       const CampaignOutcome& outcome) {
  EntryCheck check;
  check.key = campaign + "/" + outcome.label;
  check.value = outcome.result.normalized.mean;
  check.is_volume = true;
  const auto& reps = outcome.result.reps;
  if (reps.size() != outcome.config.reps) {
    check.errors.push_back("ran " + std::to_string(reps.size()) + " of " +
                           std::to_string(outcome.config.reps) + " reps");
  }
  for (std::size_t r = 0; r < reps.size(); ++r) {
    for (const std::string& e : check_rep(outcome.config, reps[r])) {
      check.errors.push_back("rep " + std::to_string(r) + ": " + e);
    }
  }
  if (outcome.config.strategy.find("2Phases") != std::string::npos) {
    const double analysis = outcome.result.analysis_ratio.mean;
    const double gap = std::abs(check.value / analysis - 1.0);
    if (!(gap <= 0.05)) {
      check.errors.push_back("2-phase mean " + std::to_string(check.value) +
                             " is " + std::to_string(100.0 * gap) +
                             "% from the analysis " + std::to_string(analysis));
    }
  }
  return check;
}

std::vector<std::string> check_dag_rep(const TaskGraph& graph,
                                       const Platform& platform,
                                       const DagSimResult& result) {
  std::vector<std::string> errors;
  const std::size_t n = graph.num_tasks();
  if (result.total_tasks_done != n) {
    errors.push_back(std::to_string(result.total_tasks_done) +
                     " tasks done of " + std::to_string(n));
  }
  // position[t] = index of t in completion_order; every dependency must
  // complete before its dependent.
  std::vector<std::size_t> position(n, n);
  bool order_ok = result.completion_order.size() == n;
  for (std::size_t i = 0; order_ok && i < n; ++i) {
    const DagTaskId t = result.completion_order[i];
    if (t >= n || position[t] != n) {
      order_ok = false;
    } else {
      position[t] = i;
    }
  }
  for (DagTaskId t = 0; order_ok && t < n; ++t) {
    for (const DagTaskId d : graph.task(t).deps) {
      if (position[d] > position[t]) order_ok = false;
    }
  }
  if (!order_ok) errors.push_back("completion_order is not a topological order");
  const double bound = DagSimResult::makespan_lower_bound(graph, platform);
  if (!(result.makespan >= bound * (1.0 - 1e-12))) {
    errors.push_back("makespan " + std::to_string(result.makespan) +
                     " below the lower bound " + std::to_string(bound));
  }
  return errors;
}

namespace {

// The golden files are flat JSON written by write_golden; every
// "key": number pair in them is a golden value. A missing file reads as
// empty, so every entry fails the golden check.
std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  static const std::regex kPair(R"re("([^"]+)"\s*:\s*(-?[0-9][0-9.eE+-]*))re");
  std::map<std::string, double> values;
  for (auto it = std::sregex_iterator(s.begin(), s.end(), kPair);
       it != std::sregex_iterator(); ++it) {
    values[(*it)[1].str()] = std::strtod((*it)[2].str().c_str(), nullptr);
  }
  return values;
}

}  // namespace

GoldenSummary check_golden(const std::string& path,
                           std::vector<EntryCheck>& entries) {
  const std::map<std::string, double> golden = read_golden(path);
  GoldenSummary summary;
  for (EntryCheck& entry : entries) {
    ++summary.entries;
    const auto it = golden.find(entry.key);
    if (it == golden.end()) {
      entry.errors.push_back("no golden value in " + path);
      continue;
    }
    const double gap = std::abs(entry.value / it->second - 1.0);
    if (gap <= 0.01) {
      ++summary.within;
    } else {
      entry.errors.push_back("value " + std::to_string(entry.value) + " is " +
                             std::to_string(100.0 * gap) +
                             "% from the golden " + std::to_string(it->second));
    }
    if (entry.value == it->second) ++summary.exact;
  }
  return summary;
}

void write_golden(const std::string& path, const std::string& workload,
                  const std::vector<EntryCheck>& entries) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden file " + path);
  JsonWriter json(out, /*pretty=*/true, /*double_precision=*/17);
  json.begin_object();
  json.field("workload", workload);
  json.key("values");
  json.begin_object();
  for (const EntryCheck& entry : entries) json.field(entry.key, entry.value);
  json.end_object();
  json.end_object();
  out << '\n';
}

}  // namespace e2e
