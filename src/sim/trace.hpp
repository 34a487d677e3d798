// Optional observation hooks for the simulation engine.
//
// Tests, examples, and the observability layer (src/obs) subscribe to
// assignment/completion events to check engine invariants (no task
// computed twice, blocks counted once, ...) and to sample trajectories
// without the engine knowing about them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/strategy.hpp"

namespace hetsched {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A request by `worker` at `now` was answered with `assignment`.
  virtual void on_assignment(std::uint32_t worker, double now,
                             const Assignment& assignment) = 0;

  /// Worker `worker` finished `task` at `now`.
  virtual void on_completion(std::uint32_t worker, double now, TaskId task) = 0;

  /// Worker `worker` retired (no further work possible) at `now`.
  virtual void on_retire(std::uint32_t worker, double now) = 0;

  /// A two-phase strategy crossed from the data-aware phase into the
  /// random phase at `now` with `tasks_remaining` unallocated tasks.
  /// Default no-op so existing sinks keep compiling.
  virtual void on_phase_switch(double now, std::uint64_t tasks_remaining) {
    (void)now;
    (void)tasks_remaining;
  }

  /// A data-aware strategy began serving randomly because a worker's
  /// unknown index sets ran dry while `tasks_remaining` tasks were
  /// still pooled (crash-requeued leftovers) — a regime change distinct
  /// from the planned two-phase switch above. Emitted at most once per
  /// rep; default no-op.
  virtual void on_fallback(double now, std::uint64_t tasks_remaining) {
    (void)now;
    (void)tasks_remaining;
  }
};

/// A TraceSink that buffers everything; convenient in tests.
///
/// Memory can be bounded with `set_max_events`: once the total stored
/// event count reaches the cap, further events are counted in
/// `dropped_events()` instead of stored, so tracing a (N/l)^3 matmul
/// run cannot silently exhaust RAM.
class RecordingTrace final : public TraceSink {
 public:
  struct AssignmentEvent {
    std::uint32_t worker;
    double time;
    Assignment assignment;
  };
  struct CompletionEvent {
    std::uint32_t worker;
    double time;
    TaskId task;
  };
  struct RetireEvent {
    std::uint32_t worker;
    double time;
  };
  struct PhaseSwitchEvent {
    double time;
    std::uint64_t tasks_remaining;
  };
  struct FallbackEvent {
    double time;
    std::uint64_t tasks_remaining;
  };

  RecordingTrace() = default;
  /// Convenience: construct with an event cap (see set_max_events).
  explicit RecordingTrace(std::size_t max_events) : max_events_(max_events) {}

  void on_assignment(std::uint32_t worker, double now,
                     const Assignment& assignment) override;
  void on_completion(std::uint32_t worker, double now, TaskId task) override;
  void on_retire(std::uint32_t worker, double now) override;
  void on_phase_switch(double now, std::uint64_t tasks_remaining) override;
  void on_fallback(double now, std::uint64_t tasks_remaining) override;

  /// Caps the total number of stored events (assignments + completions
  /// + retirements + phase switches + fallbacks). 0 = unbounded (the
  /// default). Events past the cap are dropped and counted, never
  /// stored.
  void set_max_events(std::size_t max_events) noexcept {
    max_events_ = max_events;
  }

  /// Events discarded because the cap was reached.
  std::uint64_t dropped_events() const noexcept { return dropped_; }

  /// Events currently stored across all categories.
  std::size_t stored_events() const noexcept {
    return assignments_.size() + completions_.size() + retirements_.size() +
           phase_switches_.size() + fallbacks_.size();
  }

  const std::vector<AssignmentEvent>& assignments() const noexcept {
    return assignments_;
  }
  const std::vector<CompletionEvent>& completions() const noexcept {
    return completions_;
  }
  const std::vector<RetireEvent>& retirements() const noexcept {
    return retirements_;
  }
  const std::vector<PhaseSwitchEvent>& phase_switches() const noexcept {
    return phase_switches_;
  }
  const std::vector<FallbackEvent>& fallbacks() const noexcept {
    return fallbacks_;
  }

 private:
  bool admit();  // false (and counts a drop) once the cap is reached

  std::vector<AssignmentEvent> assignments_;
  std::vector<CompletionEvent> completions_;
  std::vector<RetireEvent> retirements_;
  std::vector<PhaseSwitchEvent> phase_switches_;
  std::vector<FallbackEvent> fallbacks_;
  std::size_t max_events_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hetsched
