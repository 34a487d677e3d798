// Back-end of the spec layer: a resolved+validated ScenarioSpec
// compiles into the labeled CampaignEntry list the Campaign runner
// consumes. Grid axes expand n -> p -> strategy -> phase2 (the legacy
// cmd_campaign insertion order), every entry gets a fresh Scenario
// (speed models carry draw state) and the config_hash of its point.
// The phase2 axis expands only the 2-phase strategies: the others
// ignore it, so each compiles to one entry without phase2, hashed as
// its point without phase2.
#pragma once

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "spec/spec.hpp"

namespace hetsched {

struct CompiledCampaign {
  std::string name;
  std::vector<CampaignEntry> entries;
};

/// Expands the grid of a resolved spec. Calls validate_spec first, so
/// feeding it an invalid spec throws SpecError rather than producing
/// bad configs. Labels are `<strategy>.p<p>`, extended with `.n<n>`
/// and/or (2-phase strategies only) `.ph<phase2>` only when that axis
/// has more than one value — single-axis campaigns keep the exact
/// legacy labels.
CompiledCampaign compile_spec(const ScenarioSpec& resolved);

/// compile_spec's entries, in order, as one Campaign ready to run.
Campaign compile_campaign(const ScenarioSpec& resolved);

}  // namespace hetsched
