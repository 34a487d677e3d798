// A tiny --key=value command-line parser for bench and example binaries.
//
// All harness binaries run unattended with sensible defaults (the
// paper's parameters); flags exist so a user can rescale an experiment
// (e.g. --reps=3 --pmax=100 for a quick pass). Every getter records
// the flag it asked about, so a command that has read its flags can
// reject the rest (a misspelled --stratgy is an error, not ignored).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hetsched {

class CliArgs {
 public:
  /// Parses argv of the form --key=value or --flag. Unrecognized
  /// positional arguments throw std::invalid_argument.
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get(const std::string& key, const std::string& fallback) const;
  /// The numeric getters (get_int, get_double, get_int_list) parse the
  /// whole value and throw std::invalid_argument naming the flag on
  /// anything else ("5x", "1e6" for an integer, "").
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// The items of a comma-separated list, e.g. --strategies=a,b; empty
  /// items are dropped, and an absent flag gives an empty list.
  std::vector<std::string> get_list(const std::string& key) const;

  /// Parses a comma-separated list of integers, e.g. --p=10,50,100.
  std::vector<std::int64_t> get_int_list(const std::string& key,
                                         std::vector<std::int64_t> fallback) const;

  /// A size flag (--n, --p, --reps, ...): an integer in [1, 2^32), or
  /// std::invalid_argument naming the flag and the value.
  std::uint32_t get_count(const std::string& key, std::uint32_t fallback) const;
  /// A thread-count flag (--jobs): 0 (auto) or an integer in [1, 2^32).
  std::uint32_t get_thread_count(const std::string& key,
                                 std::uint32_t fallback) const;
  /// The list form, e.g. --p=10,50,100: every item a size, at least one.
  std::vector<std::uint32_t> get_count_list(
      const std::string& key, std::vector<std::uint32_t> fallback) const;

  const std::string& program() const noexcept { return program_; }

  /// Throws std::invalid_argument naming every given flag that no
  /// getter above has asked about. A command calls it once its flags
  /// are read and before any work starts.
  void reject_unread() const;

 private:
  /// The value of `key`, or nullptr when absent; records the key as read.
  const std::string* find(const std::string& key) const;

  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace hetsched
