#include "spec/overlay.hpp"

#include <algorithm>
#include <cmath>

#include "core/experiment.hpp"
#include "spec/parse.hpp"

namespace hetsched {

namespace {

std::vector<std::uint32_t> parse_count_flag(const CliArgs& args,
                                            const std::string& key) {
  std::vector<std::uint32_t> out;
  for (const std::string& item : args.get_list(key)) {
    std::uint32_t v = 0;
    if (!parse_u32_strict(item, v)) {
      throw SpecError("--" + key + ": expected a positive integer, got '" +
                      item + "'");
    }
    out.push_back(v);
  }
  if (out.empty()) {
    throw SpecError("--" + key + ": expected an integer list");
  }
  return out;
}

double parse_number_flag(const CliArgs& args, const std::string& key) {
  const std::string value = args.get(key, "");
  double out = 0.0;
  if (!parse_double_strict(value, out)) {
    throw SpecError("--" + key + ": expected a number, got '" + value + "'");
  }
  return out;
}

}  // namespace

ScenarioSpec spec_overlay_from_cli(const CliArgs& args) {
  ScenarioSpec spec;
  if (args.has("name")) spec.name = args.get("name", "");
  if (args.has("kernel")) {
    spec.kernel = kernel_from_string(args.get("kernel", "outer"));
  }
  if (args.has("strategy") && args.has("strategies")) {
    throw SpecError("--strategy and --strategies are mutually exclusive");
  }
  if (args.has("strategy")) {
    spec.strategies = {args.get("strategy", "")};
  } else if (args.has("strategies")) {
    spec.strategies = args.get_list("strategies");
    if (spec.strategies.empty()) {
      throw SpecError("--strategies: expected a strategy-name list");
    }
  }
  if (args.has("n")) spec.ns = parse_count_flag(args, "n");
  if (args.has("p")) spec.ps = parse_count_flag(args, "p");
  if (args.has("beta") && args.has("phase2")) {
    throw SpecError("--beta and --phase2 are mutually exclusive");
  }
  if (args.has("beta")) {
    const double beta = parse_number_flag(args, "beta");
    if (!std::isfinite(beta) || beta < 0.0) {
      throw SpecError("--beta: expected a finite number >= 0, got '" +
                      args.get("beta", "") + "'");
    }
    // The conversion --beta always applied (Section 3.6: a fraction
    // exp(-beta) of the tasks is served by phase 2).
    spec.phase2s = {std::exp(-beta)};
  }
  if (args.has("phase2")) {
    spec.phase2s = {parse_number_flag(args, "phase2")};
  }
  if (args.has("scenario")) {
    SpeedSpec platform;
    platform.kind = SpeedSpec::Kind::kPreset;
    platform.preset = args.get("scenario", "default");
    spec.platform = platform;
  }
  if (args.has("reps")) spec.reps = parse_count_flag(args, "reps").front();
  if (args.has("seed")) {
    std::uint64_t seed = 0;
    if (!parse_u64_strict(args.get("seed", ""), seed)) {
      throw SpecError("--seed: expected a non-negative integer, got '" +
                      args.get("seed", "") + "'");
    }
    spec.seed = seed;
  }
  if (args.has("timed")) spec.timed = args.get_bool("timed", false);
  if (args.has("bandwidth")) spec.bandwidth = parse_number_flag(args, "bandwidth");
  if (args.has("latency")) spec.latency = parse_number_flag(args, "latency");
  if (args.has("lookahead")) {
    spec.lookahead = parse_count_flag(args, "lookahead").front();
  }
  if (args.has("faults")) {
    spec.faults = parse_fault_list(args.get("faults", ""));
  }
  return spec;
}

ScenarioSpec load_spec(const std::string& path, const CliArgs& args,
                       const SpecDefaults& defaults) {
  ScenarioSpec spec;
  if (!path.empty()) spec = parse_spec_file(path);
  spec = resolve_spec(merge_specs(std::move(spec), spec_overlay_from_cli(args)),
                      defaults);
  validate_spec(spec);
  // Only the 2-phase strategies read phase2, so a --beta/--phase2 flag
  // over a grid without one would be dropped unread. A spec file's own
  // phase2 axis stays accepted under a --strategy overlay: it describes
  // the file's grid, of which the overlay runs one cell.
  for (const char* key : {"beta", "phase2"}) {
    if (args.has(key) &&
        std::none_of(spec.strategies.begin(), spec.strategies.end(),
                     is_two_phase)) {
      std::string message = "--";
      message += key;
      message +=
          ": no strategy of the grid reads it; only the two-phase "
          "strategies (DynamicOuter2Phases, DynamicMatrix2Phases) do";
      throw SpecError(message);
    }
  }
  return spec;
}

}  // namespace hetsched
