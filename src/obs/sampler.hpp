// Simulated-time sampling of named probe channels.
//
// A discrete-event run has no wall clock to hang a poller on, so the
// sampler is driven by the event stream instead: the instrumented
// trace calls advance_to(now) as events complete, and the sampler
// emits one row per elapsed sampling deadline (t = 0, dt, 2dt, ...).
// Probes read live state (strategy pools, counters), so a row carries
// the state as of the first driving event at or after its deadline —
// off by at most one inter-event gap, which is far below the
// resolution the ODE overlay needs.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace hetsched {

class TimeSeriesSampler {
 public:
  /// interval <= 0 is allowed at construction (e.g. "auto" pending a
  /// platform draw) but must be fixed via set_interval before the
  /// first advance_to.
  explicit TimeSeriesSampler(double interval = 0.0) : interval_(interval) {}

  /// Only valid before any sample was taken.
  void set_interval(double interval);
  double interval() const noexcept { return interval_; }

  /// Registers a probe; must happen before the first sample so every
  /// row has the same width.
  void add_channel(std::string name, std::function<double()> probe);

  /// Emits samples for every deadline <= now (idempotent; time must
  /// not go backwards). Called from every trace hook, so the
  /// no-deadline-due path is a single inlined comparison.
  void advance_to(double now) {
    if (now < next_deadline_) return;
    advance_slow(now);
  }

  /// Emits any outstanding deadlines plus one final row at `end_time`
  /// (so the series always covers the full run).
  void finish(double end_time);

  const std::vector<std::string>& channel_names() const noexcept {
    return names_;
  }

  std::size_t num_samples() const noexcept { return times_.size(); }
  double sample_time(std::size_t row) const { return times_[row]; }
  /// Value of channel `ch` in row `row` (row-major flat storage).
  double sample_value(std::size_t row, std::size_t ch) const {
    return values_[row * probes_.size() + ch];
  }
  /// Every row's time, in row order.
  const std::vector<double>& times() const noexcept { return times_; }
  /// Values of the channel called `name`, one per row; empty when no
  /// channel has that name.
  std::vector<double> series(const std::string& name) const;

 private:
  void advance_slow(double now);
  void emit(double t);
  /// Keeps next_deadline_ consistent with (channels, interval):
  /// +inf with no channels (advance_to is a no-op), -inf with channels
  /// but no interval (first advance_to lands in the slow path, which
  /// throws), 0.0 once both are set (first sample at t = 0).
  void rearm() noexcept {
    if (probes_.empty()) {
      next_deadline_ = std::numeric_limits<double>::infinity();
    } else if (!(interval_ > 0.0)) {
      next_deadline_ = -std::numeric_limits<double>::infinity();
    } else {
      next_deadline_ = 0.0;
    }
  }

  double interval_;
  double next_deadline_ = std::numeric_limits<double>::infinity();
  std::vector<std::string> names_;
  std::vector<std::function<double()>> probes_;
  // Row-major flat series (one times_ entry per row, probes_.size()
  // values per row): appending a row is amortized-allocation-free,
  // which keeps the event-driven hot path cheap.
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace hetsched
