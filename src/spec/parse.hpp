// Text front-end of the spec layer: the sectioned `.hspec` format.
//
//   # comment (to end of line)
//   [campaign]    name
//   [experiment]  kernel, reps, seed
//   [platform]    scenario = <preset> | speeds = <kind> <args...>, perturb
//   [engine]      timed, bandwidth, latency, lookahead
//   [grid]        strategy, n, p, beta | phase2   (comma-separated axes)
//   [faults]      fault = time:worker:factor     (one line per fault)
//
// The parser is purely syntactic and produces a *partial* ScenarioSpec;
// defaulting and semantic validation happen in resolve_spec /
// validate_spec. Every diagnostic carries the 1-based line and column
// of the offending token (SpecError).
#pragma once

#include <string>
#include <string_view>

#include "spec/spec.hpp"

namespace hetsched {

/// Parses `.hspec` text. Throws SpecError with line/column info.
ScenarioSpec parse_spec(std::string_view text);

/// Reads and parses a `.hspec` file; error messages are prefixed with
/// the path. Throws SpecError (parse) or std::runtime_error (I/O).
ScenarioSpec parse_spec_file(const std::string& path);

}  // namespace hetsched
