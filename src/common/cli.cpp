#include "common/cli.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace hetsched {

namespace {

/// Full-token parse of one flag value (std::from_chars: no leading
/// whitespace, no trailing garbage, no silent truncation of "5x" to 5).
template <typename T>
T parse_value(const std::string& key, const std::string& text,
              const char* expected) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || ptr != last) {
    throw std::invalid_argument("--" + key + ": expected " + expected +
                                ", got '" + text + "'");
  }
  return value;
}

/// A count flag's value: rejected outside [min, 2^32) before anything
/// is sized by it (a 0 made -nan rows, a negative one wrapped to ~2^32).
std::uint32_t to_count(const std::string& key, std::int64_t value,
                       std::int64_t min = 1) {
  if (value < min || value > std::int64_t{0xffffffff}) {
    std::string message = "--" + key + ": must be an integer in [";
    message += std::to_string(min);
    message += ", 2^32), got ";
    message += std::to_string(value);
    throw std::invalid_argument(message);
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
      values_[body] = "true";
    } else {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    }
  }
}

const std::string* CliArgs::find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& key) const { return find(key) != nullptr; }

std::string CliArgs::get(const std::string& key, const std::string& fallback) const {
  const std::string* value = find(key);
  return value == nullptr ? fallback : *value;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  return parse_value<std::int64_t>(key, *value, "an integer");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  return parse_value<double>(key, *value, "a number");
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  const std::string* value = find(key);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<std::string> CliArgs::get_list(const std::string& key) const {
  std::vector<std::string> out;
  std::stringstream ss(get(key, ""));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::vector<std::int64_t> CliArgs::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  if (!has(key)) return fallback;
  std::vector<std::int64_t> out;
  for (const std::string& item : get_list(key)) {
    out.push_back(parse_value<std::int64_t>(key, item, "an integer"));
  }
  return out;
}

std::uint32_t CliArgs::get_count(const std::string& key,
                                 std::uint32_t fallback) const {
  return to_count(key, get_int(key, fallback));
}

std::uint32_t CliArgs::get_thread_count(const std::string& key,
                                        std::uint32_t fallback) const {
  return to_count(key, get_int(key, fallback), 0);
}

std::vector<std::uint32_t> CliArgs::get_count_list(
    const std::string& key, std::vector<std::uint32_t> fallback) const {
  if (!has(key)) return fallback;
  std::vector<std::uint32_t> out;
  for (const std::int64_t value : get_int_list(key, {})) {
    out.push_back(to_count(key, value));
  }
  if (out.empty()) {
    throw std::invalid_argument("--" + key + ": expected at least one value");
  }
  return out;
}

void CliArgs::reject_unread() const {
  std::string unread;
  std::size_t count = 0;
  for (const auto& entry : values_) {
    if (read_.count(entry.first) != 0) continue;
    unread += " --";
    unread += entry.first;
    ++count;
  }
  if (count != 0) {
    std::string message = count == 1 ? "unrecognized flag" : "unrecognized flags";
    message += unread;
    throw std::invalid_argument(message);
  }
}

}  // namespace hetsched
