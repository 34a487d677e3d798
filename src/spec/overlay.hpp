// CLI front-end of the spec layer: flags become a *partial*
// ScenarioSpec that merge_specs lays over an optional --spec=FILE, so
// flag-driven and file-driven invocations funnel through the same
// resolution, validation and compilation.
#pragma once

#include <string>

#include "common/cli.hpp"
#include "spec/spec.hpp"

namespace hetsched {

/// Lifts the experiment-shaping flags (--name --kernel --strategy /
/// --strategies --n --p --beta / --phase2 --scenario --reps --seed
/// --timed --bandwidth --latency --lookahead --faults) into a
/// partial spec; only flags actually present produce set fields.
/// Output/telemetry flags (--json, --profile, --progress*, --*-out,
/// --jobs, ...) are not configuration and stay outside the spec.
/// Throws SpecError on malformed values (field-named, range-checked).
ScenarioSpec spec_overlay_from_cli(const CliArgs& args);

/// The shared configuration loader of the CLI and the figure benches:
/// parses the .hspec file at `path` (none if empty), lays the flag
/// overlay on top, resolves against `defaults` and validates; a
/// --beta or --phase2 flag over a grid with no two-phase strategy is
/// rejected rather than dropped. Every error is a SpecError naming the
/// offending field (and, for file input, its line/column).
ScenarioSpec load_spec(const std::string& path, const CliArgs& args,
                       const SpecDefaults& defaults);

}  // namespace hetsched
