#include "spec/compile.hpp"

#include <optional>

namespace hetsched {

CompiledCampaign compile_spec(const ScenarioSpec& resolved) {
  validate_spec(resolved);

  // An empty phase2 axis = one point with the speed-agnostic default
  // (resolve_beta derives the analysis optimum per config). Only the
  // 2-phase strategies read phase2: every other strategy is one point.
  std::vector<std::optional<double>> phase2s(resolved.phase2s.begin(),
                                             resolved.phase2s.end());
  if (phase2s.empty()) phase2s.push_back(std::nullopt);
  const std::vector<std::optional<double>> no_phase2{std::nullopt};

  CompiledCampaign out;
  out.name = *resolved.name;
  // Each entry is hashed as the resolved spec narrowed to its point.
  ScenarioSpec point = resolved;
  for (std::uint32_t n : resolved.ns) {
    for (std::uint32_t p : resolved.ps) {
      for (const std::string& strategy : resolved.strategies) {
        const auto& strategy_phase2s =
            is_two_phase(strategy) ? phase2s : no_phase2;
        for (const std::optional<double>& ph2 : strategy_phase2s) {
          ExperimentConfig config;
          config.kernel = *resolved.kernel;
          config.strategy = strategy;
          config.n = n;
          config.p = p;
          // Fresh model per entry: some SpeedModels carry mutable draw
          // state, so campaign entries must not share one.
          config.scenario = make_scenario(*resolved.platform);
          config.phase2_fraction = ph2;
          config.seed = *resolved.seed;
          config.reps = *resolved.reps;
          config.timed = *resolved.timed;
          config.comm.bandwidth = *resolved.bandwidth;
          config.comm.latency = *resolved.latency;
          config.lookahead = *resolved.lookahead;
          config.faults = to_worker_faults(resolved.faults);
          point.strategies = {strategy};
          point.ns = {n};
          point.ps = {p};
          point.phase2s.clear();
          if (ph2) point.phase2s.push_back(*ph2);
          config.config_hash = config_hash(point);

          std::string label = strategy + ".p" + std::to_string(p);
          if (resolved.ns.size() > 1) label += ".n" + std::to_string(n);
          if (strategy_phase2s.size() > 1) {
            label += ".ph" + format_double(*ph2);
          }
          out.entries.push_back(CampaignEntry{std::move(label),
                                              std::move(config)});
        }
      }
    }
  }
  return out;
}

Campaign compile_campaign(const ScenarioSpec& resolved) {
  CompiledCampaign compiled = compile_spec(resolved);
  Campaign campaign(compiled.name);
  for (CampaignEntry& entry : compiled.entries) {
    campaign.add(std::move(entry.label), std::move(entry.config));
  }
  return campaign;
}

}  // namespace hetsched
