// The one discrete-event core under every engine.
//
// Before this file existed the repo carried four independently written
// event loops (flat sim, timed sim, DAG, plus ad-hoc drivers), and only
// the flat one knew about fault injection, speed perturbation, metrics
// gauges and trace sinks. EventCore owns the machinery those loops
// share — the event queue with deterministic `(time, seq)`
// tie-breaking, the unified per-worker state (speed, base speed,
// in-flight task, crash epoch), scripted `WorkerFault` handling
// (crash -> requeue through the client, straggler -> speed scaling),
// `PerturbationModel` application after each completion, and optional
// `TraceSink` publication — while the engines keep
// only what genuinely differs: how a worker obtains its next task.
//
// An engine is an `EventCoreClient`: the core drives the clock and
// calls back into the client to refill workers after completions,
// deliver non-compute events (message arrivals), and return a crash
// victim's unfinished tasks to the master. The free-link engine's
// observable behaviour (event order, RNG draw order, stats) is
// bit-identical to the pre-EventCore implementation; a pinned-seed
// golden test enforces that.
//
// Hot-path layout (see docs/performance.md): events are 24-byte PODs
// in a hand-rolled 4-ary min-heap, fault events live in a pre-sorted
// side list merged at pop time (their construction-time sequence
// numbers are smaller than any engine event's, so a fault still wins
// every time tie exactly as it did in the single-heap layout), and
// worker run queues are vectors with a consumed-prefix head instead of
// std::deque so the steady state allocates nothing.
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

/// FIFO of runnable task ids: a contiguous vector with a consumed
/// prefix instead of std::deque, so pushes in the simulation steady
/// state reuse capacity instead of allocating deque chunks. The
/// consumed prefix is reclaimed when the queue empties or when it
/// outgrows the live suffix (amortized O(1) per pop).
class TaskQueue {
 public:
  bool empty() const noexcept { return head_ == buf_.size(); }
  std::size_t size() const noexcept { return buf_.size() - head_; }
  TaskId front() const {
    assert(!empty());
    return buf_[head_];
  }
  void push_back(TaskId t) { buf_.push_back(t); }
  void pop_front() {
    assert(!empty());
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 64 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }
  /// Appends every queued id to `out` (front to back) and empties the
  /// queue; capacity is retained on both sides.
  void drain_into(std::vector<TaskId>& out) {
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head_),
               buf_.end());
    clear();
  }
  auto begin() const noexcept {
    return buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  auto end() const noexcept { return buf_.end(); }

 private:
  std::vector<TaskId> buf_;
  std::size_t head_ = 0;
};

/// Engine-specific behaviour the core calls back into. Callbacks fire
/// with the core clock already advanced to the event time.
class EventCoreClient {
 public:
  virtual ~EventCoreClient() = default;

  /// Worker `worker` completed its task (stats, trace, perturbation
  /// already applied by the core); give it more work or let it idle.
  virtual void on_task_done(std::uint32_t worker, double now) = 0;

  /// A message event (pushed via EventCore::push_message) arrived for
  /// `worker`. Stale deliveries (crash epoch advanced) are dropped by
  /// the core before this is called. Default: nothing to do.
  virtual void on_message(std::uint32_t worker, double now);

  /// A batch event (pushed via EventCore::push_batch_event) fired for
  /// `worker`; `tag` echoes the value given at push time so the client
  /// can drop events invalidated by a mid-batch retime. Only clients
  /// that push batch events ever see this. Default: nothing to do.
  virtual void on_batch_done(std::uint32_t worker, double now,
                             std::uint32_t tag);

  /// A straggler fault just rescaled `worker`'s speed. A client that
  /// schedules multi-task batch events must re-time the in-flight
  /// batch; per-task clients need nothing (queued tasks pick up the
  /// new speed when they start). Default: nothing to do.
  virtual void on_speed_change(std::uint32_t worker, double now);

  /// Crash support: append `worker`'s engine-side pending tasks (those
  /// NOT in the core's runnable queue or in flight on the worker — the
  /// core drains both itself) to `out` and forget them. Default: none.
  virtual void collect_pending(std::uint32_t worker,
                               std::vector<TaskId>& out);

  /// Returns a crash victim's unfinished tasks to the master. False =
  /// requeueing unsupported, which makes crash injection an error.
  virtual bool requeue(std::vector<TaskId>& tasks);

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
  /// Unified worker state. `queue` holds runnable tasks (the timed
  /// engine's in-transit messages stay client-side); `epoch` advances
  /// on crash and invalidates in-flight completion/message events.
  struct Worker {
    TaskQueue queue;
    double speed = 0.0;
    double base_speed = 0.0;
    TaskId current = 0;
    double current_finish = 0.0;
    double current_duration = 0.0;
    std::uint32_t epoch = 0;
    bool running = false;
    bool retired = false;
    bool failed = false;
  };

  /// Validates faults and stages their events; initial work must then
  /// be primed by the engine (start_task / push_message) before
  /// run_loop().
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

  /// Starts `task` on worker `k`: records it in-flight, pre-charges
  /// busy time, and schedules the completion event.
  void start_task(std::uint32_t k, double now, double duration, TaskId task);

  /// Schedules one event at `time` standing for a whole run of tasks
  /// on worker `k`. The client owns the batch contents and credits the
  /// individual completions via credit_batch_completion when the event
  /// fires (on_batch_done) or a fault splits the batch. `tag` is
  /// echoed back verbatim for staleness detection.
  void push_batch_event(std::uint32_t k, double time, std::uint32_t tag);

  /// Batched-mode replacement for the per-event completion
  /// bookkeeping: tasks-done counters, finish time, makespan. The
  /// caller must credit a worker's completions in start order so the
  /// busy-time float accumulation matches the per-event engine's.
  void credit_batch_completion(std::uint32_t k, double finish,
                               double duration) {
    WorkerSimStats& stats = result_.workers[k];
    stats.busy_time += duration;
    ++stats.tasks_done;
    ++result_.total_tasks_done;
    stats.finish_time = finish;
    if (finish > result_.makespan) result_.makespan = finish;
  }

  /// Bulk form of credit_batch_completion for an uninterrupted run of
  /// `count` tasks starting at `start`: the float accumulation is the
  /// identical sequential `+= duration` chain, but the counters, final
  /// finish time and makespan are settled once after the loop (their
  /// per-task intermediate values are never observable). Returns the
  /// last finish time.
  double credit_batch_run(std::uint32_t k, double start, double duration,
                          std::uint64_t count) {
    if (count == 0) return start;
    WorkerSimStats& stats = result_.workers[k];
    double t = start;
    for (std::uint64_t i = 0; i < count; ++i) {
      t += duration;
      stats.busy_time += duration;
    }
    stats.tasks_done += count;
    result_.total_tasks_done += count;
    stats.finish_time = t;
    if (t > result_.makespan) result_.makespan = t;
    return t;
  }

  /// Schedules a message-arrival event for worker `k` at `time`
  /// (delivered to EventCoreClient::on_message; dropped if the worker
  /// crashes before `time`).
  void push_message(std::uint32_t k, double time);

  /// Marks worker `k` retired (the master has nothing for it) and
  /// emits the trace retirement event.
  void retire_worker(std::uint32_t k, double now);

  /// Drains the event heap (and the staged fault list) to completion.
  /// Templated on the concrete client type: every engine passes itself
  /// (declared `final`), so its per-event callbacks are devirtualized
  /// and inlined into the loop — worth ~10-20 ns/event on
  /// batch-size-1 workloads. Faults still reach the client through
  /// the EventCoreClient vtable (apply_fault is out of line).
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
      Worker& w = workers_[ev.worker];
      const std::uint32_t kind = ev.meta & 0xFFu;
      const std::uint32_t stamp = ev.meta >> 8;

      switch (kind) {
        case kTaskDone: {
          if (w.failed || stamp != w.epoch) break;  // stale after crash
          assert(w.running);
          w.running = false;
          WorkerSimStats& stats = result_.workers[ev.worker];
          ++stats.tasks_done;
          ++result_.total_tasks_done;
          stats.finish_time = ev.time;
          if (ev.time > result_.makespan) result_.makespan = ev.time;
          if (trace_ != nullptr) {
            trace_->on_completion(ev.worker, ev.time, w.current);
          }
          if (perturbation_.enabled()) {
            w.speed =
                perturbation_.perturb(w.speed, w.base_speed, perturb_rng_);
          }
          client.on_task_done(ev.worker, ev.time);
          break;
        }
        case kMessage: {
          if (w.failed || stamp != w.epoch) break;  // stale after crash
          client.on_message(ev.worker, ev.time);
          break;
        }
        case kBatchDone: {
          if (w.failed) break;  // stale after crash
          client.on_batch_done(ev.worker, ev.time, stamp);
          break;
        }
      }
    }
  }

  /// Copies final speeds into the stats and returns the result.
  SimResult finish();

 private:
  enum : std::uint32_t { kTaskDone = 0, kMessage = 1, kBatchDone = 2 };

  /// 24-byte POD event. `meta` packs the event kind (low 8 bits) with
  /// the crash epoch — or, for batch events, the client's staleness
  /// tag — in the high 24 bits. Faults are not events: they live in
  /// `faults_`, pre-sorted, and are merged in at pop time.
  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break for identical times => determinism
    std::uint32_t worker;
    std::uint32_t meta;
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
