// The scenario spec layer: one validated IR between every
// configuration producer (CLI flags, .hspec text files, bench
// harnesses) and every consumer (run_experiment, Campaign).
//
//   .hspec text --parse_spec--> ScenarioSpec (partial)
//   CLI flags  --spec_overlay_from_cli--> ScenarioSpec (partial)
//         merge_specs -> resolve_spec(defaults) -> validate_spec
//                      -> compile_spec -> CampaignEntry list
//
// A *resolved* spec has every field populated; it canonicalizes to a
// stable text form (`canonical_text`, round-trip: parsing the
// canonical text and resolving it reproduces the spec exactly) and to
// a 64-bit FNV-1a hash (`config_hash`) that identifies one compiled
// point's result-determining configuration.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "platform/scenario.hpp"

namespace hetsched {

/// Error from the spec layer. Parse errors carry the 1-based line and
/// column of the offending token (what() is "line L, col C: message");
/// validation errors on an in-memory spec use line 0 and a bare
/// message.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& message, std::size_t line = 0,
                     std::size_t column = 0);

  std::size_t line() const noexcept { return line_; }
  std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

/// One scripted fault, the spec-layer mirror of WorkerFault: at `time`,
/// worker `worker`'s speed is scaled by `factor` (0 = crash).
struct FaultSpec {
  double time = 0.0;
  std::uint32_t worker = 0;
  double factor = 0.0;
  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Platform description: either a named preset (the paper's scenarios,
/// platform/scenario.hpp) or an inline speed model with an optional
/// per-task drift percentage. Only the fields of the active kind are
/// meaningful; the others stay at their zero defaults so the defaulted
/// equality works.
struct SpeedSpec {
  enum class Kind : std::uint8_t {
    kPreset,       // named_scenario(preset)
    kUniform,      // speeds uniform in [lo, hi)
    kSet,          // machine classes, picked uniformly
    kList,         // explicit per-draw speed list (cycled)
    kTwoClass,     // slow/fast Bernoulli mix (CPU+GPU hybrid)
    kHomogeneous,  // every worker at `speed`
  };

  Kind kind = Kind::kPreset;
  std::string preset = "default";  // kPreset
  double lo = 0.0, hi = 0.0;       // kUniform
  std::vector<double> values;      // kSet / kList
  double slow = 0.0, fast = 0.0, fast_fraction = 0.0;  // kTwoClass
  double speed = 0.0;                                  // kHomogeneous
  /// Per-task speed drift percent (inline kinds only; presets carry
  /// their own perturbation).
  double perturb_percent = 0.0;

  friend bool operator==(const SpeedSpec&, const SpeedSpec&) = default;
};

/// The scenario IR. Unset optionals / empty vectors mean "not given";
/// resolve_spec fills them from SpecDefaults (and from the kernel for
/// the kernel-dependent ones). `strategies`, `ns`, `ps` and `phase2s`
/// are grid axes: compile_spec expands their cross product into one
/// CampaignEntry per point. An empty `phase2s` means the 2-phase
/// strategies derive beta from the analysis optimum (resolve_beta).
struct ScenarioSpec {
  std::optional<std::string> name;   // campaign name
  std::optional<Kernel> kernel;
  std::vector<std::string> strategies;
  std::vector<std::uint32_t> ns;
  std::vector<std::uint32_t> ps;
  std::vector<double> phase2s;       // fraction of tasks served by phase 2
  std::optional<SpeedSpec> platform;
  std::optional<std::uint32_t> reps;
  std::optional<std::uint64_t> seed;
  std::optional<bool> timed;
  std::optional<double> bandwidth;
  std::optional<double> latency;
  std::optional<std::uint32_t> lookahead;
  std::vector<FaultSpec> faults;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Per-entry-point defaults, chosen so flag-only invocations compile to
/// exactly the configs the CLI used to build by hand.
struct SpecDefaults {
  std::uint32_t reps = 5;
  std::vector<std::uint32_t> ps{10, 50, 100};
  /// true: default to the kernel's single 2-phase strategy (`run`);
  /// false: the kernel's Random/Dynamic/Dynamic2Phases trio.
  bool single_strategy = false;
};

/// Defaults of `hetsched_cli run`: 10 reps, p = 20, one strategy.
SpecDefaults run_spec_defaults();
/// Defaults of `sweep`/`campaign`/`validate`: 5 reps, p = 10,50,100,
/// the three paper strategies.
SpecDefaults batch_spec_defaults();

/// Field-wise merge: wherever `overlay` has a value (set optional,
/// non-empty vector), it wins; everything else comes from `base`.
ScenarioSpec merge_specs(ScenarioSpec base, const ScenarioSpec& overlay);

/// Fills every unset field (kernel-dependent strategy/n defaults,
/// SpecDefaults for reps/p, paper defaults elsewhere) and pins the comm
/// knobs to their defaults while `timed` is false, so they cannot leak
/// into the canonical form.
/// Throws SpecError if bandwidth/latency/lookahead are set explicitly
/// without `timed = true` — they would silently do nothing.
ScenarioSpec resolve_spec(ScenarioSpec spec, const SpecDefaults& defaults);

/// Complete field validation of a resolved spec: value ranges, known
/// strategy names (checked against the kernel's factory), known
/// scenario presets, duplicate-free grid axes, and cross-field rules
/// (timed => positive bandwidth, fault targets < the smallest p,
/// factor 0 or in (0,1) as the engines require). Throws SpecError.
void validate_spec(const ScenarioSpec& resolved);

/// Stable canonical text of a resolved spec. Round-trip invariant:
/// resolve_spec(parse_spec(canonical_text(s)), d) == s for every
/// resolved s and any defaults d. Doubles are printed in shortest
/// round-trip form (std::to_chars), so values survive exactly.
std::string canonical_text(const ScenarioSpec& resolved);

/// Builds a fresh Scenario (new SpeedModel instance per call — some
/// models carry mutable draw state, so campaign entries must not share
/// one) from a SpeedSpec.
Scenario make_scenario(const SpeedSpec& spec);

/// 64-bit FNV-1a over the canonical text of one compiled point: a
/// resolved spec whose grid axes hold a single strategy, n and p and
/// at most one phase2 value. The campaign name and the seed are
/// hash-neutral (pinned to constants before hashing), so the hash
/// identifies the point's configuration, not its draws. compile_spec
/// stamps it into every entry; `validate` prints it and the report
/// JSON carries it as "config_hash".
std::uint64_t config_hash(const ScenarioSpec& point);

/// FNV-1a 64 over raw bytes.
std::uint64_t fnv1a64(std::string_view bytes);

/// Shortest round-trip decimal form of a double (std::to_chars).
std::string format_double(double v);

/// Strict full-token numeric parses (std::from_chars: locale-free, no
/// leading/trailing garbage accepted). Return false on non-conforming
/// input instead of throwing, so callers can attach field context.
bool parse_double_strict(std::string_view s, double& out);
bool parse_u32_strict(std::string_view s, std::uint32_t& out);
bool parse_u64_strict(std::string_view s, std::uint64_t& out);

/// Parses one "t:w:f" fault token (the CLI --faults item format) with
/// field-named diagnostics and range checks: time >= 0, integer worker
/// index, factor 0 (crash) or in (0,1) (straggler), no trailing
/// garbage. `context` prefixes every message, e.g. "faults[0]".
FaultSpec parse_fault_token(std::string_view token,
                            const std::string& context);

/// Parses a comma-separated fault list ("t:w:f,t:w:f"); errors name
/// the offending item as faults[i] plus the field.
std::vector<FaultSpec> parse_fault_list(const std::string& csv);

/// FaultSpec -> engine WorkerFault, in order.
std::vector<WorkerFault> to_worker_faults(const std::vector<FaultSpec>& faults);

}  // namespace hetsched
