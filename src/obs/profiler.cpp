#include "obs/profiler.hpp"

#include <atomic>
#include <chrono>

#include "common/json.hpp"

namespace hetsched {

namespace {

std::atomic<ProfClock> g_clock_override{nullptr};

}  // namespace

const char* to_string(ProfSite site) noexcept {
  switch (site) {
    case ProfSite::kStrategyBuild:
      return "strategy.build";
    case ProfSite::kStrategyReset:
      return "strategy.reset";
    case ProfSite::kEngineRun:
      return "engine.run";
    case ProfSite::kAggregate:
      return "aggregate";
    case ProfSite::kExport:
      return "export";
    case ProfSite::kAnalyze:
      return "analyze";
    case ProfSite::kCount:
      break;
  }
  return "unknown";
}

std::uint64_t prof_default_clock() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_prof_clock_for_testing(ProfClock clock) noexcept {
  g_clock_override.store(clock, std::memory_order_relaxed);
}

ProfClock prof_clock() noexcept {
  ProfClock override = g_clock_override.load(std::memory_order_relaxed);
  return override != nullptr ? override : &prof_default_clock;
}

void ProfShard::merge(const ProfShard& other) noexcept {
  for (std::size_t i = 0; i < kNumProfSites; ++i) {
    sites[i].ns += other.sites[i].ns;
    sites[i].self_ns += other.sites[i].self_ns;
    sites[i].calls += other.sites[i].calls;
  }
}

void ProfileTotals::add(const ProfShard& shard) noexcept {
  for (std::size_t i = 0; i < kNumProfSites; ++i) {
    sites[i].ns += shard.sites[i].ns;
    sites[i].self_ns += shard.sites[i].self_ns;
    sites[i].calls += shard.sites[i].calls;
  }
}

std::uint64_t ProfileTotals::total_self_ns() const noexcept {
  std::uint64_t total = 0;
  for (const auto& site : sites) total += site.self_ns;
  return total;
}

void write_profile_json(JsonWriter& json, const ProfileTotals& totals) {
  json.begin_object();
  for (std::size_t i = 0; i < kNumProfSites; ++i) {
    const auto& site = totals.sites[i];
    if (site.calls == 0) continue;
    json.key(to_string(static_cast<ProfSite>(i)));
    json.begin_object();
    json.field("ns", site.ns);
    json.field("self_ns", site.self_ns);
    json.field("calls", site.calls);
    json.end_object();
  }
  json.end_object();
}

}  // namespace hetsched
