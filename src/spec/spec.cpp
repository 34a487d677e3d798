#include "spec/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

#include "matmul/matmul_factory.hpp"
#include "matmul/matmul_problem.hpp"
#include "outer/outer_factory.hpp"
#include "outer/outer_problem.hpp"
#include "platform/speed_model.hpp"

namespace hetsched {

namespace {

std::string position_message(const std::string& message, std::size_t line,
                             std::size_t column) {
  if (line == 0) return message;
  return "line " + std::to_string(line) + ", col " + std::to_string(column) +
         ": " + message;
}

std::vector<std::string_view> split_on(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

template <typename T, typename Fmt>
std::string join_values(const std::vector<T>& values, const Fmt& fmt) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ", ";
    out += fmt(values[i]);
  }
  return out;
}

/// Throws when `values` holds a repeated entry — duplicate grid points
/// would collide on campaign labels.
template <typename T, typename Fmt>
void require_unique(const std::vector<T>& values, const std::string& field,
                    const Fmt& fmt) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = i + 1; j < values.size(); ++j) {
      if (values[i] == values[j]) {
        throw SpecError(field + ": duplicate value " + fmt(values[i]));
      }
    }
  }
}

bool is_preset_name(const std::string& name) {
  try {
    named_scenario(name);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Probes the kernel's strategy factory with a tiny instance so the
/// accepted-name set can never drift from the factories themselves.
void require_known_strategy(Kernel kernel, const std::string& name) {
  try {
    if (kernel == Kernel::kOuter) {
      make_outer_strategy(name, OuterConfig{2}, 1, 1);
    } else {
      make_matmul_strategy(name, MatmulConfig{2}, 1, 1);
    }
  } catch (const std::invalid_argument&) {
    throw SpecError("[grid] strategy: unknown " + to_string(kernel) +
                    " strategy '" + name + "'");
  }
}

/// Applies the kernel's own size limit (validate(OuterConfig) /
/// validate(MatmulConfig)), so an out-of-range n is reported here
/// rather than after a strategy has allocated its pool.
void require_kernel_accepts_n(Kernel kernel, std::uint32_t n) {
  try {
    if (kernel == Kernel::kOuter) {
      validate(OuterConfig{n});
    } else {
      validate(MatmulConfig{n});
    }
  } catch (const std::invalid_argument& e) {
    throw SpecError("[grid] n: " + std::string(e.what()));
  }
}

void validate_platform(const SpeedSpec& p) {
  const auto finite_positive = [](double v) {
    return std::isfinite(v) && v > 0.0;
  };
  switch (p.kind) {
    case SpeedSpec::Kind::kPreset:
      if (!is_preset_name(p.preset)) {
        throw SpecError("[platform] scenario: unknown preset '" + p.preset +
                        "' (known: default, hom, unif.1, unif.2, set.3, "
                        "set.5, dyn.5, dyn.20)");
      }
      if (p.perturb_percent != 0.0) {
        throw SpecError(
            "[platform] perturb: presets carry their own perturbation; "
            "perturb is only valid with inline speeds");
      }
      return;  // presets validate their own contents
    case SpeedSpec::Kind::kUniform:
      if (!finite_positive(p.lo) || !std::isfinite(p.hi) || p.lo >= p.hi) {
        throw SpecError("[platform] speeds: uniform needs 0 < lo < hi, got " +
                        format_double(p.lo) + " " + format_double(p.hi));
      }
      break;
    case SpeedSpec::Kind::kSet:
    case SpeedSpec::Kind::kList:
      if (p.values.empty()) {
        throw SpecError("[platform] speeds: at least one speed is required");
      }
      for (const double v : p.values) {
        if (!finite_positive(v)) {
          throw SpecError("[platform] speeds: every speed must be > 0, got " +
                          format_double(v));
        }
      }
      break;
    case SpeedSpec::Kind::kTwoClass:
      if (!finite_positive(p.slow) || !finite_positive(p.fast)) {
        throw SpecError("[platform] speeds: twoclass speeds must be > 0");
      }
      if (!std::isfinite(p.fast_fraction) || p.fast_fraction < 0.0 ||
          p.fast_fraction > 1.0) {
        throw SpecError(
            "[platform] speeds: twoclass fast fraction must be in [0, 1], "
            "got " +
            format_double(p.fast_fraction));
      }
      break;
    case SpeedSpec::Kind::kHomogeneous:
      if (!finite_positive(p.speed)) {
        throw SpecError("[platform] speeds: hom speed must be > 0, got " +
                        format_double(p.speed));
      }
      break;
  }
  if (!std::isfinite(p.perturb_percent) || p.perturb_percent < 0.0 ||
      p.perturb_percent >= 100.0) {
    throw SpecError("[platform] perturb: drift percent must be in [0, 100), "
                    "got " +
                    format_double(p.perturb_percent));
  }
}

std::string fault_to_token(const FaultSpec& f) {
  return format_double(f.time) + ":" + std::to_string(f.worker) + ":" +
         format_double(f.factor);
}

}  // namespace

SpecError::SpecError(const std::string& message, std::size_t line,
                     std::size_t column)
    : std::runtime_error(position_message(message, line, column)),
      line_(line),
      column_(column) {}

SpecDefaults run_spec_defaults() {
  return SpecDefaults{/*reps=*/10, /*ps=*/{20}, /*single_strategy=*/true};
}

SpecDefaults batch_spec_defaults() {
  return SpecDefaults{/*reps=*/5, /*ps=*/{10, 50, 100},
                      /*single_strategy=*/false};
}

ScenarioSpec merge_specs(ScenarioSpec base, const ScenarioSpec& overlay) {
  if (overlay.name) base.name = overlay.name;
  if (overlay.kernel) base.kernel = overlay.kernel;
  if (!overlay.strategies.empty()) base.strategies = overlay.strategies;
  if (!overlay.ns.empty()) base.ns = overlay.ns;
  if (!overlay.ps.empty()) base.ps = overlay.ps;
  if (!overlay.phase2s.empty()) base.phase2s = overlay.phase2s;
  if (overlay.platform) base.platform = overlay.platform;
  if (overlay.reps) base.reps = overlay.reps;
  if (overlay.seed) base.seed = overlay.seed;
  if (overlay.timed) base.timed = overlay.timed;
  if (overlay.bandwidth) base.bandwidth = overlay.bandwidth;
  if (overlay.latency) base.latency = overlay.latency;
  if (overlay.lookahead) base.lookahead = overlay.lookahead;
  if (!overlay.faults.empty()) base.faults = overlay.faults;
  return base;
}

ScenarioSpec resolve_spec(ScenarioSpec spec, const SpecDefaults& defaults) {
  const bool timed = spec.timed.value_or(false);
  if (!timed) {
    // Comm knobs without the timed engine would silently do nothing;
    // refuse instead (cross-field rule).
    if (spec.bandwidth) {
      throw SpecError("[engine] bandwidth requires timed = true");
    }
    if (spec.latency) {
      throw SpecError("[engine] latency requires timed = true");
    }
    if (spec.lookahead) {
      throw SpecError("[engine] lookahead requires timed = true");
    }
  }
  if (!spec.name) spec.name = "cli";
  if (!spec.kernel) spec.kernel = Kernel::kOuter;
  const bool outer = *spec.kernel == Kernel::kOuter;
  if (spec.strategies.empty()) {
    if (defaults.single_strategy) {
      spec.strategies = {outer ? "DynamicOuter2Phases"
                               : "DynamicMatrix2Phases"};
    } else if (outer) {
      spec.strategies = {"RandomOuter", "DynamicOuter", "DynamicOuter2Phases"};
    } else {
      spec.strategies = {"RandomMatrix", "DynamicMatrix",
                         "DynamicMatrix2Phases"};
    }
  }
  if (spec.ns.empty()) spec.ns = {outer ? 100u : 40u};
  if (spec.ps.empty()) spec.ps = defaults.ps;
  if (!spec.platform) spec.platform = SpeedSpec{};
  if (!spec.reps) spec.reps = defaults.reps;
  if (!spec.seed) spec.seed = 42;
  spec.timed = timed;
  // Pin the comm knobs to their engine defaults while the timed engine
  // is off, so inert values can never reach the canonical form or the
  // config hash.
  const CommModel comm_defaults{};
  if (!timed || !spec.bandwidth) spec.bandwidth = comm_defaults.bandwidth;
  if (!timed || !spec.latency) spec.latency = comm_defaults.latency;
  if (!timed || !spec.lookahead) spec.lookahead = ExperimentConfig{}.lookahead;
  return spec;
}

void validate_spec(const ScenarioSpec& s) {
  if (!s.name || !s.kernel || !s.platform || !s.reps || !s.seed || !s.timed ||
      !s.bandwidth || !s.latency || !s.lookahead ||
      s.strategies.empty() || s.ns.empty() || s.ps.empty()) {
    throw SpecError("internal: validate_spec needs a resolved spec "
                    "(run resolve_spec first)");
  }
  if (s.name->empty() ||
      s.name->find_first_not_of(
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
          "0123456789._+-") != std::string::npos) {
    throw SpecError("[campaign] name: must be non-empty and use only "
                    "letters, digits, '.', '_', '+' or '-', got '" +
                    *s.name + "'");
  }
  require_unique(s.strategies, "[grid] strategy",
                 [](const std::string& v) { return "'" + v + "'"; });
  for (const auto& strategy : s.strategies) {
    require_known_strategy(*s.kernel, strategy);
  }
  const auto u32_fmt = [](std::uint32_t v) { return std::to_string(v); };
  require_unique(s.ns, "[grid] n", u32_fmt);
  for (const std::uint32_t n : s.ns) {
    if (n == 0) throw SpecError("[grid] n: must be >= 1");
    require_kernel_accepts_n(*s.kernel, n);
  }
  require_unique(s.ps, "[grid] p", u32_fmt);
  for (const std::uint32_t p : s.ps) {
    if (p == 0) throw SpecError("[grid] p: must be >= 1");
  }
  require_unique(s.phase2s, "[grid] phase2",
                 [](double v) { return format_double(v); });
  for (const double ph2 : s.phase2s) {
    if (!std::isfinite(ph2) || ph2 <= 0.0 || ph2 > 1.0) {
      throw SpecError("[grid] phase2: fraction must be in (0, 1], got " +
                      format_double(ph2));
    }
  }
  if (*s.reps == 0) throw SpecError("[experiment] reps: must be >= 1");
  validate_platform(*s.platform);
  if (*s.timed) {
    if (!std::isfinite(*s.bandwidth) || *s.bandwidth <= 0.0) {
      throw SpecError("[engine] timed requires a bandwidth that is finite "
                      "and > 0, got " +
                      format_double(*s.bandwidth));
    }
    if (!std::isfinite(*s.latency) || *s.latency < 0.0) {
      throw SpecError("[engine] latency: must be finite and >= 0, got " +
                      format_double(*s.latency));
    }
    if (*s.lookahead == 0) {
      throw SpecError("[engine] lookahead: must be >= 1");
    }
  }
  const std::uint32_t min_p = *std::min_element(s.ps.begin(), s.ps.end());
  for (std::size_t i = 0; i < s.faults.size(); ++i) {
    const FaultSpec& f = s.faults[i];
    const std::string where = "[faults] fault " + std::to_string(i);
    if (!std::isfinite(f.time) || f.time < 0.0) {
      throw SpecError(where + ": time must be finite and >= 0, got " +
                      format_double(f.time));
    }
    if (!std::isfinite(f.factor) ||
        !(f.factor == 0.0 || (f.factor > 0.0 && f.factor < 1.0))) {
      throw SpecError(where + ": factor must be 0 (crash) or in (0, 1), "
                      "got " +
                      format_double(f.factor));
    }
    if (f.worker >= min_p) {
      throw SpecError(where + ": targets worker " + std::to_string(f.worker) +
                      " but the smallest p in the grid is " +
                      std::to_string(min_p));
    }
  }
}

std::string canonical_text(const ScenarioSpec& s) {
  std::string out;
  out += "# hetsched scenario spec v1 (canonical form)\n";
  out += "\n[campaign]\n";
  out += "name = " + *s.name + "\n";
  out += "\n[experiment]\n";
  out += "kernel = " + to_string(*s.kernel) + "\n";
  out += "reps = " + std::to_string(*s.reps) + "\n";
  out += "seed = " + std::to_string(*s.seed) + "\n";
  out += "\n[platform]\n";
  const SpeedSpec& p = *s.platform;
  switch (p.kind) {
    case SpeedSpec::Kind::kPreset:
      out += "scenario = " + p.preset + "\n";
      break;
    case SpeedSpec::Kind::kUniform:
      out += "speeds = uniform " + format_double(p.lo) + " " +
             format_double(p.hi) + "\n";
      break;
    case SpeedSpec::Kind::kSet:
    case SpeedSpec::Kind::kList:
      out += p.kind == SpeedSpec::Kind::kSet ? "speeds = set" : "speeds = list";
      for (const double v : p.values) out += " " + format_double(v);
      out += "\n";
      break;
    case SpeedSpec::Kind::kTwoClass:
      out += "speeds = twoclass " + format_double(p.slow) + " " +
             format_double(p.fast) + " " + format_double(p.fast_fraction) +
             "\n";
      break;
    case SpeedSpec::Kind::kHomogeneous:
      out += "speeds = hom " + format_double(p.speed) + "\n";
      break;
  }
  if (p.kind != SpeedSpec::Kind::kPreset && p.perturb_percent != 0.0) {
    out += "perturb = " + format_double(p.perturb_percent) + "\n";
  }
  out += "\n[engine]\n";
  if (*s.timed) {
    out += "timed = true\n";
    out += "bandwidth = " + format_double(*s.bandwidth) + "\n";
    out += "latency = " + format_double(*s.latency) + "\n";
    out += "lookahead = " + std::to_string(*s.lookahead) + "\n";
  } else {
    out += "timed = false\n";
  }
  out += "\n[grid]\n";
  out += "strategy = " +
         join_values(s.strategies, [](const std::string& v) { return v; }) +
         "\n";
  out += "n = " + join_values(s.ns, [](std::uint32_t v) {
           return std::to_string(v);
         }) + "\n";
  out += "p = " + join_values(s.ps, [](std::uint32_t v) {
           return std::to_string(v);
         }) + "\n";
  if (!s.phase2s.empty()) {
    out += "phase2 = " +
           join_values(s.phase2s, [](double v) { return format_double(v); }) +
           "\n";
  }
  if (!s.faults.empty()) {
    out += "\n[faults]\n";
    for (const FaultSpec& f : s.faults) {
      out += "fault = " + fault_to_token(f) + "\n";
    }
  }
  return out;
}

Scenario make_scenario(const SpeedSpec& spec) {
  if (spec.kind == SpeedSpec::Kind::kPreset) return named_scenario(spec.preset);
  const PerturbationModel perturbation =
      spec.perturb_percent > 0.0 ? PerturbationModel{spec.perturb_percent}
                                 : PerturbationModel{};
  const std::string drift =
      spec.perturb_percent > 0.0 ? "~" + format_double(spec.perturb_percent)
                                 : "";
  switch (spec.kind) {
    case SpeedSpec::Kind::kUniform:
      return Scenario{"uniform(" + format_double(spec.lo) + "," +
                          format_double(spec.hi) + ")" + drift,
                      std::make_shared<UniformIntervalSpeeds>(spec.lo, spec.hi),
                      perturbation};
    case SpeedSpec::Kind::kSet:
    case SpeedSpec::Kind::kList: {
      std::string args;
      for (std::size_t i = 0; i < spec.values.size(); ++i) {
        if (i != 0) args += ",";
        args += format_double(spec.values[i]);
      }
      if (spec.kind == SpeedSpec::Kind::kSet) {
        return Scenario{"set(" + args + ")" + drift,
                        std::make_shared<DiscreteSetSpeeds>(spec.values),
                        perturbation};
      }
      return Scenario{"list(" + args + ")" + drift,
                      std::make_shared<FixedListSpeeds>(spec.values),
                      perturbation};
    }
    case SpeedSpec::Kind::kTwoClass:
      return Scenario{"twoclass(" + format_double(spec.slow) + "," +
                          format_double(spec.fast) + "," +
                          format_double(spec.fast_fraction) + ")" + drift,
                      std::make_shared<TwoClassSpeeds>(spec.slow, spec.fast,
                                                       spec.fast_fraction),
                      perturbation};
    case SpeedSpec::Kind::kHomogeneous:
      return Scenario{"hom(" + format_double(spec.speed) + ")" + drift,
                      std::make_shared<HomogeneousSpeeds>(spec.speed),
                      perturbation};
    case SpeedSpec::Kind::kPreset:
      break;  // handled above
  }
  throw SpecError("internal: unhandled SpeedSpec kind");
}

std::uint64_t config_hash(const ScenarioSpec& point) {
  // Hash-neutral fields are pinned to constants: the campaign name is
  // presentation-only and the seed picks the draws, not the point.
  ScenarioSpec pinned = point;
  pinned.name = "config";
  pinned.seed = 0;
  return fnv1a64(canonical_text(pinned));
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

bool parse_double_strict(std::string_view s, double& out) {
  if (s.empty()) return false;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_u64_strict(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last;
}

bool parse_u32_strict(std::string_view s, std::uint32_t& out) {
  std::uint64_t wide = 0;
  if (!parse_u64_strict(s, wide) || wide > 0xffffffffull) return false;
  out = static_cast<std::uint32_t>(wide);
  return true;
}

std::string format_double(double v) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  if (ec != std::errc()) throw SpecError("internal: double format failed");
  return std::string(buffer, ptr);
}

FaultSpec parse_fault_token(std::string_view token,
                            const std::string& context) {
  const auto fields = split_on(token, ':');
  if (fields.size() != 3) {
    throw SpecError(context + ": expected time:worker:factor, got '" +
                    std::string(token) + "'");
  }
  FaultSpec fault;
  if (!parse_double_strict(fields[0], fault.time) ||
      !std::isfinite(fault.time) || fault.time < 0.0) {
    throw SpecError(context + ".time: expected a finite number >= 0, got '" +
                    std::string(fields[0]) + "'");
  }
  if (!parse_u32_strict(fields[1], fault.worker)) {
    throw SpecError(context + ".worker: expected a worker index, got '" +
                    std::string(fields[1]) + "'");
  }
  if (!parse_double_strict(fields[2], fault.factor) ||
      !std::isfinite(fault.factor) ||
      !(fault.factor == 0.0 || (fault.factor > 0.0 && fault.factor < 1.0))) {
    throw SpecError(context +
                    ".factor: expected 0 (crash) or a factor in (0, 1), "
                    "got '" +
                    std::string(fields[2]) + "'");
  }
  return fault;
}

std::vector<FaultSpec> parse_fault_list(const std::string& csv) {
  std::vector<FaultSpec> faults;
  if (csv.empty()) return faults;
  const auto items = split_on(csv, ',');
  faults.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    faults.push_back(parse_fault_token(
        items[i], "faults[" + std::to_string(i) + "]"));
  }
  return faults;
}

std::vector<WorkerFault> to_worker_faults(
    const std::vector<FaultSpec>& faults) {
  std::vector<WorkerFault> out;
  out.reserve(faults.size());
  for (const FaultSpec& f : faults) {
    out.push_back(WorkerFault{f.time, f.worker, f.factor});
  }
  return out;
}

}  // namespace hetsched
