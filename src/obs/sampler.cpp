#include "obs/sampler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace hetsched {

void TimeSeriesSampler::set_interval(double interval) {
  if (!times_.empty()) {
    throw std::logic_error(
        "TimeSeriesSampler: cannot change the interval mid-series");
  }
  interval_ = interval;
  rearm();
}

void TimeSeriesSampler::add_channel(std::string name,
                                    std::function<double()> probe) {
  if (!times_.empty()) {
    throw std::logic_error(
        "TimeSeriesSampler: cannot add channels mid-series");
  }
  if (!probe) {
    throw std::invalid_argument("TimeSeriesSampler: probe must be callable");
  }
  names_.push_back(std::move(name));
  probes_.push_back(std::move(probe));
  rearm();
}

void TimeSeriesSampler::emit(double t) {
  times_.push_back(t);
  for (const auto& probe : probes_) values_.push_back(probe());
}

void TimeSeriesSampler::advance_slow(double now) {
  if (!(interval_ > 0.0)) {
    throw std::logic_error(
        "TimeSeriesSampler: interval must be set (> 0) before sampling");
  }
  while (next_deadline_ <= now) {
    emit(next_deadline_);
    next_deadline_ += interval_;
  }
}

void TimeSeriesSampler::finish(double end_time) {
  if (probes_.empty()) return;
  advance_to(end_time);
  if (times_.empty() || times_.back() < end_time) {
    emit(end_time);
  }
}

std::vector<double> TimeSeriesSampler::series(const std::string& name) const {
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return out;
  const auto ch = static_cast<std::size_t>(it - names_.begin());
  out.reserve(times_.size());
  for (std::size_t row = 0; row < times_.size(); ++row) {
    out.push_back(sample_value(row, ch));
  }
  return out;
}

}  // namespace hetsched
