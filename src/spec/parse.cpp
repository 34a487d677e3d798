#include "spec/parse.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

namespace hetsched {

namespace {

enum class Section : std::uint8_t {
  kNone,
  kCampaign,
  kExperiment,
  kPlatform,
  kEngine,
  kGrid,
  kFaults,
};

const char* section_name(Section s) {
  switch (s) {
    case Section::kCampaign: return "campaign";
    case Section::kExperiment: return "experiment";
    case Section::kPlatform: return "platform";
    case Section::kEngine: return "engine";
    case Section::kGrid: return "grid";
    case Section::kFaults: return "faults";
    case Section::kNone: break;
  }
  return "?";
}

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// A token plus its 1-based column in the source line.
struct Token {
  std::string_view text;
  std::size_t col = 1;
};

/// Trims `text` (an offset-addressed slice of the line) and returns it
/// with the column of its first character.
Token trimmed_token(std::string_view line, std::size_t begin,
                    std::size_t end) {
  while (begin < end && is_space(line[begin])) ++begin;
  while (end > begin && is_space(line[end - 1])) --end;
  return Token{line.substr(begin, end - begin), begin + 1};
}

/// Splits a value slice on `sep`, trimming every item and keeping its
/// column. Empty items are preserved so the caller can diagnose them.
std::vector<Token> split_tokens(std::string_view line, std::size_t begin,
                                std::size_t end, char sep) {
  std::vector<Token> out;
  std::size_t item_start = begin;
  for (std::size_t i = begin; i <= end; ++i) {
    if (i == end || line[i] == sep) {
      out.push_back(trimmed_token(line, item_start, i));
      item_start = i + 1;
    }
  }
  return out;
}

/// Splits a value slice on runs of whitespace (no empty tokens).
std::vector<Token> split_words(std::string_view line, std::size_t begin,
                               std::size_t end) {
  std::vector<Token> out;
  std::size_t i = begin;
  while (i < end) {
    while (i < end && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < end && !is_space(line[i])) ++i;
    if (i > start) out.push_back(Token{line.substr(start, i - start), start + 1});
  }
  return out;
}

class Parser {
 public:
  ScenarioSpec parse(std::string_view text) {
    std::size_t start = 0;
    while (start <= text.size()) {
      const std::size_t nl = text.find('\n', start);
      const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
      ++lineno_;
      parse_line(text.substr(start, end - start));
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
    return std::move(spec_);
  }

 private:
  [[noreturn]] void fail(const std::string& message, std::size_t col) const {
    throw SpecError(message, lineno_, col);
  }

  std::string key_label(std::string_view key) const {
    std::string label = "[";
    label += section_name(section_);
    label += "] ";
    label += key;
    return label;
  }

  void parse_line(std::string_view line) {
    const std::size_t comment = line.find('#');
    const std::size_t end = comment == std::string_view::npos ? line.size()
                                                              : comment;
    const Token content = trimmed_token(line, 0, end);
    if (content.text.empty()) return;
    if (content.text.front() == '[') {
      parse_section_header(content);
      return;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq >= end) {
      fail("expected 'key = value' or '[section]'", content.col);
    }
    const Token key = trimmed_token(line, content.col - 1, eq);
    if (key.text.empty()) fail("expected a key before '='", content.col);
    Token value = trimmed_token(line, eq + 1, end);
    if (value.text.empty()) {
      fail(key_label(key.text) + ": expected a value after '='", eq + 2);
    }
    dispatch(line, key, value, eq + 1, end);
  }

  void parse_section_header(const Token& content) {
    if (content.text.back() != ']') {
      fail("unterminated section header (missing ']')", content.col);
    }
    const std::string name(content.text.substr(1, content.text.size() - 2));
    if (name == "campaign") section_ = Section::kCampaign;
    else if (name == "experiment") section_ = Section::kExperiment;
    else if (name == "platform") section_ = Section::kPlatform;
    else if (name == "engine") section_ = Section::kEngine;
    else if (name == "grid") section_ = Section::kGrid;
    else if (name == "faults") section_ = Section::kFaults;
    else {
      fail("unknown section '[" + name +
               "]' (sections: campaign, experiment, platform, engine, "
               "grid, faults)",
           content.col);
    }
  }

  /// Rejects a key seen twice in its section ([faults] fault repeats).
  void mark_seen(std::string_view key, std::size_t col) {
    if (section_ == Section::kFaults) return;
    const std::string tag =
        std::string(section_name(section_)) + "." + std::string(key);
    if (!seen_.insert(tag).second) {
      fail("duplicate key: " + key_label(key), col);
    }
  }

  void dispatch(std::string_view line, const Token& key, const Token& value,
                std::size_t value_begin, std::size_t value_end) {
    if (section_ == Section::kNone) {
      fail("key '" + std::string(key.text) +
               "' appears before any [section] header",
           key.col);
    }
    mark_seen(key.text, key.col);
    switch (section_) {
      case Section::kCampaign:
        if (key.text == "name") {
          spec_.name = std::string(value.text);
          return;
        }
        unknown_key(key, "name");
      case Section::kExperiment:
        if (key.text == "kernel") {
          if (value.text == "outer") spec_.kernel = Kernel::kOuter;
          else if (value.text == "matmul") spec_.kernel = Kernel::kMatmul;
          else fail(key_label(key.text) + ": expected outer or matmul, got '" +
                        std::string(value.text) + "'",
                    value.col);
          return;
        }
        if (key.text == "reps") {
          spec_.reps = parse_count(key.text, value);
          return;
        }
        if (key.text == "seed") {
          std::uint64_t seed = 0;
          if (!parse_u64_strict(value.text, seed)) {
            fail(key_label(key.text) + ": expected a non-negative integer, "
                     "got '" +
                     std::string(value.text) + "'",
                 value.col);
          }
          spec_.seed = seed;
          return;
        }
        unknown_key(key, "kernel, reps, seed");
      case Section::kPlatform:
        if (key.text == "scenario") {
          if (speeds_set_) {
            fail("[platform] scenario and speeds are mutually exclusive",
                 key.col);
          }
          SpeedSpec p = spec_.platform.value_or(SpeedSpec{});
          p.kind = SpeedSpec::Kind::kPreset;
          p.preset = std::string(value.text);
          spec_.platform = p;
          return;
        }
        if (key.text == "speeds") {
          if (spec_.platform &&
              spec_.platform->kind == SpeedSpec::Kind::kPreset &&
              seen_.count("platform.scenario") != 0) {
            fail("[platform] scenario and speeds are mutually exclusive",
                 key.col);
          }
          parse_speeds(line, value_begin, value_end, value.col);
          speeds_set_ = true;
          return;
        }
        if (key.text == "perturb") {
          double percent = 0.0;
          if (!parse_double_strict(value.text, percent) ||
              !std::isfinite(percent) || percent < 0.0) {
            fail(key_label(key.text) + ": expected a percentage >= 0, got '" +
                     std::string(value.text) + "'",
                 value.col);
          }
          SpeedSpec p = spec_.platform.value_or(SpeedSpec{});
          p.perturb_percent = percent;
          spec_.platform = p;
          return;
        }
        unknown_key(key, "scenario, speeds, perturb");
      case Section::kEngine:
        if (key.text == "timed") {
          if (value.text == "true") spec_.timed = true;
          else if (value.text == "false") spec_.timed = false;
          else fail(key_label(key.text) + ": expected true or false, got '" +
                        std::string(value.text) + "'",
                    value.col);
          return;
        }
        if (key.text == "bandwidth") {
          spec_.bandwidth = parse_number(key.text, value);
          return;
        }
        if (key.text == "latency") {
          spec_.latency = parse_number(key.text, value);
          return;
        }
        if (key.text == "lookahead") {
          spec_.lookahead = parse_count(key.text, value);
          return;
        }
        unknown_key(key, "timed, bandwidth, latency, lookahead");
      case Section::kGrid:
        if (key.text == "strategy") {
          for (const Token& item :
               split_tokens(line, value_begin, value_end, ',')) {
            if (item.text.empty()) {
              fail("[grid] strategy: empty list item", item.col);
            }
            spec_.strategies.emplace_back(item.text);
          }
          return;
        }
        if (key.text == "n") {
          spec_.ns = parse_count_list(line, key.text, value_begin, value_end);
          return;
        }
        if (key.text == "p") {
          spec_.ps = parse_count_list(line, key.text, value_begin, value_end);
          return;
        }
        if (key.text == "beta") {
          require_one_beta_form(key);
          for (const Token& item :
               split_tokens(line, value_begin, value_end, ',')) {
            double beta = 0.0;
            if (!parse_double_strict(item.text, beta) ||
                !std::isfinite(beta) || beta < 0.0) {
              fail("[grid] beta: expected a finite number >= 0, got '" +
                       std::string(item.text) + "'",
                   item.col);
            }
            // The same conversion the CLI's --beta always applied.
            spec_.phase2s.push_back(std::exp(-beta));
          }
          return;
        }
        if (key.text == "phase2") {
          require_one_beta_form(key);
          for (const Token& item :
               split_tokens(line, value_begin, value_end, ',')) {
            double ph2 = 0.0;
            if (!parse_double_strict(item.text, ph2)) {
              fail("[grid] phase2: expected a number, got '" +
                       std::string(item.text) + "'",
                   item.col);
            }
            spec_.phase2s.push_back(ph2);
          }
          return;
        }
        unknown_key(key, "strategy, n, p, beta, phase2");
      case Section::kFaults:
        if (key.text == "fault") {
          try {
            spec_.faults.push_back(
                parse_fault_token(value.text, "[faults] fault"));
          } catch (const SpecError& e) {
            fail(e.what(), value.col);
          }
          return;
        }
        unknown_key(key, "fault");
      case Section::kNone:
        break;  // unreachable: handled above
    }
  }

  [[noreturn]] void unknown_key(const Token& key,
                                const char* known) const {
    fail(key_label(key.text) + ": unknown key (" +
             std::string(section_name(section_)) + " keys: " + known + ")",
         key.col);
  }

  std::uint32_t parse_count(std::string_view key, const Token& value) {
    std::uint32_t out = 0;
    if (!parse_u32_strict(value.text, out)) {
      fail(key_label(key) + ": expected a non-negative integer, got '" +
               std::string(value.text) + "'",
           value.col);
    }
    return out;
  }

  double parse_number(std::string_view key, const Token& value) {
    double out = 0.0;
    if (!parse_double_strict(value.text, out)) {
      fail(key_label(key) + ": expected a number, got '" +
               std::string(value.text) + "'",
           value.col);
    }
    return out;
  }

  std::vector<std::uint32_t> parse_count_list(std::string_view line,
                                              std::string_view key,
                                              std::size_t begin,
                                              std::size_t end) {
    std::vector<std::uint32_t> out;
    for (const Token& item : split_tokens(line, begin, end, ',')) {
      std::uint32_t v = 0;
      if (!parse_u32_strict(item.text, v)) {
        fail(key_label(key) + ": expected a positive integer, got '" +
                 std::string(item.text) + "'",
             item.col);
      }
      out.push_back(v);
    }
    return out;
  }

  void require_one_beta_form(const Token& key) {
    if (!spec_.phase2s.empty()) {
      fail("[grid] beta and phase2 are mutually exclusive", key.col);
    }
  }

  void parse_speeds(std::string_view line, std::size_t begin, std::size_t end,
                    std::size_t value_col) {
    const std::vector<Token> words = split_words(line, begin, end);
    if (words.empty()) {
      fail("[platform] speeds: expected '<kind> <values...>'", value_col);
    }
    SpeedSpec p = spec_.platform.value_or(SpeedSpec{});
    const Token& kind = words.front();
    std::vector<double> numbers;
    numbers.reserve(words.size() - 1);
    for (std::size_t i = 1; i < words.size(); ++i) {
      double v = 0.0;
      if (!parse_double_strict(words[i].text, v)) {
        fail("[platform] speeds: expected a number, got '" +
                 std::string(words[i].text) + "'",
             words[i].col);
      }
      numbers.push_back(v);
    }
    if (kind.text == "uniform") {
      if (numbers.size() != 2) {
        fail("[platform] speeds: uniform takes exactly 2 values (lo hi)",
             kind.col);
      }
      p.kind = SpeedSpec::Kind::kUniform;
      p.lo = numbers[0];
      p.hi = numbers[1];
    } else if (kind.text == "set" || kind.text == "list") {
      if (numbers.empty()) {
        fail("[platform] speeds: " + std::string(kind.text) +
                 " needs at least one speed",
             kind.col);
      }
      p.kind = kind.text == "set" ? SpeedSpec::Kind::kSet
                                  : SpeedSpec::Kind::kList;
      p.values = std::move(numbers);
    } else if (kind.text == "twoclass") {
      if (numbers.size() != 3) {
        fail("[platform] speeds: twoclass takes exactly 3 values "
             "(slow fast fast_fraction)",
             kind.col);
      }
      p.kind = SpeedSpec::Kind::kTwoClass;
      p.slow = numbers[0];
      p.fast = numbers[1];
      p.fast_fraction = numbers[2];
    } else if (kind.text == "hom") {
      if (numbers.size() != 1) {
        fail("[platform] speeds: hom takes exactly 1 value (speed)",
             kind.col);
      }
      p.kind = SpeedSpec::Kind::kHomogeneous;
      p.speed = numbers[0];
    } else {
      fail("[platform] speeds: unknown kind '" + std::string(kind.text) +
               "' (kinds: uniform, set, list, twoclass, hom)",
           kind.col);
    }
    spec_.platform = p;
  }

  ScenarioSpec spec_;
  Section section_ = Section::kNone;
  std::set<std::string> seen_;
  bool speeds_set_ = false;
  std::size_t lineno_ = 0;
};

}  // namespace

ScenarioSpec parse_spec(std::string_view text) {
  return Parser{}.parse(text);
}

ScenarioSpec parse_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_spec(buffer.str());
  } catch (const SpecError& e) {
    throw SpecError(path + ": " + e.what());
  }
}

}  // namespace hetsched
