// The one discrete-event core under every engine.
//
// EventCore owns what the engines share: a heap of client events with
// deterministic `(time, seq)` tie-breaking, each worker's speed and
// retired/failed flags, scripted `WorkerFault` handling (crash ->
// requeue through the client, straggler -> speed scaling), the
// perturbation stream, the run's statistics and the optional
// `TraceSink`. The engines keep what differs: what a worker runs, when
// it acts, and how it obtains its next task.
//
// An engine is an `EventCoreClient`. It pushes one kind of event, `{time,
// worker, tag}`, for each moment a worker must act (a task or a run of
// tasks finishing, a message arriving); the core pops them in order,
// drops those of crashed workers and hands the rest back through
// `on_event` with the tag, which tells the client what the event
// stands for. On a crash the client hands back the victim's unfinished
// tasks and the core requeues them through it.
//
// Hot-path layout (see docs/performance.md): events are 24-byte PODs
// in a hand-rolled 4-ary min-heap, and faults live in a pre-sorted side
// list merged at pop time (their sequence numbers are smaller than any
// engine event's, so a fault wins every time tie).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"

namespace hetsched {

/// A scripted worker fault. factor == 0 kills the worker at `time`
/// (its queued and in-flight tasks are requeued through the client);
/// 0 < factor < 1 is a straggler event multiplying the worker's speed.
struct WorkerFault {
  double time = 0.0;
  std::uint32_t worker = 0;
  double factor = 0.0;  // 0 = crash; else speed multiplier
};

/// Per-worker statistics, shared by every engine. The free link has no
/// communication timing, so it reports the timed-link fields
/// (`messages_received`, `starved_time`) as 0.
struct WorkerSimStats {
  std::uint64_t tasks_done = 0;
  std::uint64_t blocks_received = 0;
  std::uint64_t messages_received = 0;  // timed link; 0 elsewhere
  double busy_time = 0.0;    // total time spent computing
  double finish_time = 0.0;  // completion time of the worker's last task
  double starved_time = 0.0;  // timed link: stall with empty queue
  double final_speed = 0.0;  // speed after the last perturbation
};

/// Result of one simulate() run on any link (the DAG engine embeds the
/// same worker stats in DagSimResult).
struct SimResult {
  double makespan = 0.0;
  std::uint64_t total_blocks = 0;
  std::uint64_t total_tasks_done = 0;
  std::uint64_t requeued_tasks = 0;   // returned to the pool by crashes
  std::uint32_t crashed_workers = 0;
  double link_busy_time = 0.0;  // timed link: total uplink occupancy
  std::vector<WorkerSimStats> workers;

  /// Communication volume normalized by a lower bound (the paper's
  /// y-axis on every figure).
  double normalized_volume(double lower_bound) const {
    return static_cast<double>(total_blocks) / lower_bound;
  }

  /// (max finish - min finish) / makespan over workers that did any
  /// work; 0 for perfect balance.
  double finish_spread() const;

  /// Aggregate starvation as a fraction of total potential compute
  /// time; always 0 under the free-overlap engine.
  double starvation_fraction() const;
};

/// Engine-specific behaviour the core calls back into. Callbacks fire
/// with the core clock already advanced to the event time.
class EventCoreClient {
 public:
  virtual ~EventCoreClient() = default;

  /// An event pushed by EventCore::push_event fired for `worker`, which
  /// has not crashed; `tag` echoes the value given at push time.
  virtual void on_event(std::uint32_t worker, double now,
                        std::uint32_t tag) = 0;

  /// A straggler fault just rescaled `worker`'s speed. A client whose
  /// pending events assumed the old speed re-times them here; one whose
  /// running task keeps its finish time needs nothing. Default: nothing
  /// to do.
  virtual void on_speed_change(std::uint32_t worker, double now);

  /// Crash support: append all of `worker`'s unfinished tasks to `out`,
  /// in the order the master should get them back, and forget them.
  virtual void collect_pending(std::uint32_t worker,
                               std::vector<TaskId>& out) = 0;

  /// Returns a crash victim's unfinished tasks to the master. False =
  /// requeueing unsupported, which makes crash injection an error.
  virtual bool requeue(std::vector<TaskId>& tasks) = 0;

  /// Called after a successful crash requeue: the pool is non-empty
  /// again, so wake whatever workers the engine considers idle.
  virtual void after_requeue(double now) = 0;
};

/// Knobs shared by every engine; engines map their public configs onto
/// this and add their own (lookahead, comm model, policy, ...).
struct EventCoreOptions {
  std::uint64_t seed = 1;
  /// derive_stream tag for the perturbation RNG; per-engine so a port
  /// onto the core cannot silently change an engine's draw sequence.
  const char* perturb_stream = "engine.perturb";
  /// Prefix for validation error messages ("simulate", ...).
  const char* error_prefix = "simulate";
  PerturbationModel perturbation{};
  std::vector<WorkerFault> faults{};
  TraceSink* trace = nullptr;
};

class EventCore {
 public:
  /// Per-worker state the core and every client share. A failed worker
  /// stays failed: its pending events are dropped when they fire.
  struct Worker {
    double speed = 0.0;
    double base_speed = 0.0;
    bool retired = false;
    bool failed = false;
  };

  /// Validates faults and stages them; the engine then pushes its
  /// initial events before run_loop().
  EventCore(const Platform& platform, const EventCoreOptions& options,
            EventCoreClient& client);

  /// Shared config validation: fault target, factor range, time sign.
  /// Throws std::invalid_argument prefixed with `error_prefix`.
  static void validate_faults(const std::vector<WorkerFault>& faults,
                              std::uint32_t workers,
                              const char* error_prefix);

  std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(workers_.size());
  }
  Worker& worker(std::uint32_t k) { return workers_[k]; }
  SimResult& stats() noexcept { return result_; }
  TraceSink* trace() const noexcept { return trace_; }
  double now() const noexcept { return now_; }
  /// Stable pointer to the simulated clock, for
  /// Strategy::attach_observer; valid for the core's lifetime.
  const double* clock() const noexcept { return &now_; }
  bool perturbation_enabled() const noexcept {
    return perturbation_.enabled();
  }

  /// Schedules an event for worker `k` at `time`, delivered to
  /// EventCoreClient::on_event with `tag` unless `k` crashes first.
  void push_event(std::uint32_t k, double time, std::uint32_t tag);

  /// Credits `count` >= 1 back-to-back completions on worker `k`: the
  /// first starts at `start` and lasts `first`, every later one lasts
  /// `duration`. Finish times and busy time accumulate through the
  /// same sequential adds (`t += d`, `busy += d`, in start order) a
  /// task-by-task schedule performs; the counters, final finish time
  /// and makespan are settled once after the loop (their per-task
  /// intermediate values are never observable). Returns the last
  /// finish time.
  double credit_batch_run(std::uint32_t k, double start, double first,
                          double duration, std::uint64_t count) {
    WorkerSimStats& stats = result_.workers[k];
    double t = start + first;
    stats.busy_time += first;
    for (std::uint64_t i = 1; i < count; ++i) {
      t += duration;
      stats.busy_time += duration;
    }
    stats.tasks_done += count;
    result_.total_tasks_done += count;
    stats.finish_time = t;
    if (t > result_.makespan) result_.makespan = t;
    return t;
  }

  /// Redraws worker `k`'s speed from the perturbation model (call only
  /// when perturbation_enabled()).
  void perturb_speed(std::uint32_t k) {
    Worker& w = workers_[k];
    w.speed = perturbation_.perturb(w.speed, w.base_speed, perturb_rng_);
  }

  /// Marks worker `k` retired (the master has nothing for it) and
  /// emits the trace retirement event.
  void retire_worker(std::uint32_t k, double now);

  /// Drains the event heap (and the staged fault list) to completion.
  /// Templated on the concrete client type: every engine passes itself
  /// (declared `final`), so its on_event is devirtualized and inlined
  /// into the loop — worth ~10-20 ns/event on batch-size-1 workloads.
  /// Faults still reach the client through the EventCoreClient vtable
  /// (apply_fault is out of line).
  template <typename Client>
  void run_loop(Client& client) {
    while (!events_.empty() || next_fault_ < faults_.size()) {
      if (next_fault_ < faults_.size() &&
          (events_.empty() ||
           faults_[next_fault_].time <= events_.top().time)) {
        apply_fault(faults_[next_fault_++]);
        continue;
      }
      const Event ev = events_.top();
      events_.pop();
      now_ = ev.time;
      if (workers_[ev.worker].failed) continue;  // stale after crash
      client.on_event(ev.worker, ev.time, ev.tag);
    }
  }

  /// Copies final speeds into the stats and returns the result.
  SimResult finish();

 private:
  /// 24-byte POD event. Faults are not events: they live in `faults_`,
  /// pre-sorted, and are merged in at pop time.
  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break for identical times => determinism
    std::uint32_t worker;
    std::uint32_t tag;  // the client's, echoed to on_event
  };

  /// 4-ary min-heap ordered by (time, seq). Shallower than a binary
  /// heap (fewer cache-missing levels per sift) and free of the
  /// std::priority_queue abstraction overhead; ~40% faster per
  /// push/pop pair on the simulation's event mix.
  class EventHeap {
   public:
    void reserve(std::size_t n) { v_.reserve(n); }
    bool empty() const noexcept { return v_.empty(); }
    const Event& top() const noexcept { return v_.front(); }
    void push(const Event& e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i != 0) {
        const std::size_t parent = (i - 1) >> 2;
        if (!before(v_[i], v_[parent])) break;
        Event tmp = v_[i];
        v_[i] = v_[parent];
        v_[parent] = tmp;
        i = parent;
      }
    }
    void pop() {
      assert(!v_.empty());
      v_.front() = v_.back();
      v_.pop_back();
      if (v_.size() < 2) return;
      std::size_t i = 0;
      const std::size_t n = v_.size();
      for (;;) {
        const std::size_t first = (i << 2) + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = first + 4 < n ? first + 4 : n;
        for (std::size_t c = first + 1; c < last; ++c) {
          if (before(v_[c], v_[best])) best = c;
        }
        if (!before(v_[best], v_[i])) break;
        Event tmp = v_[i];
        v_[i] = v_[best];
        v_[best] = tmp;
        i = best;
      }
    }

   private:
    static bool before(const Event& a, const Event& b) noexcept {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
    std::vector<Event> v_;
  };

  void crash_worker(std::uint32_t k, double now);
  void apply_fault(const WorkerFault& fault);

  EventCoreClient& client_;
  TraceSink* trace_;
  const char* error_prefix_;
  PerturbationModel perturbation_;
  Rng perturb_rng_;
  std::vector<Worker> workers_;
  SimResult result_;
  EventHeap events_;
  /// Faults stably sorted by time: same pop order as the old in-heap
  /// fault events, whose construction-time sequence numbers made them
  /// win every tie against engine events.
  std::vector<WorkerFault> faults_;
  std::size_t next_fault_ = 0;
  std::uint64_t seq_ = 0;
  double now_ = 0.0;
};

}  // namespace hetsched
