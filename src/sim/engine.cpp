#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/event_core.hpp"

namespace hetsched {

namespace {

/// The master-worker engine on top of EventCore. A worker pulls
/// assignments from the strategy while fewer than `lookahead` of its
/// tasks are pending, no request of its is outstanding and the strategy
/// has not retired it. How an accepted assignment reaches the worker
/// depends on the link:
///
/// - Free link: its tasks go straight to the runnable queue, with no
///   event and no link time; zero-task assignments (all enabled tasks
///   already processed) loop into the next request, as a real
///   demand-driven worker would.
/// - Any other link: it becomes a message on the master's serial
///   uplink, and its arrival event feeds the queue. One request per
///   worker is outstanding at a time (a request/response protocol).
///
/// The free link with lookahead 1 has a batched mode, used when nobody
/// observes single completions (no trace, no perturbation): a worker's
/// whole runnable queue becomes one heap event at the batch end.
/// Completion times and busy-time accumulation replay the identical
/// sequential floating-point adds the per-task mode performs (t += d
/// per task), so every reported number is bit-identical; faults split
/// the batch at the same strict `finish < fault_time` boundary the
/// per-task event order produces (a fault always won time ties via its
/// smaller sequence number).
class Engine final : public EventCoreClient {
 public:
  Engine(Strategy& strategy, const SimConfig& config, bool batched)
      : strategy_(strategy),
        comm_(config.comm),
        lookahead_(config.lookahead),
        free_link_(config.comm.is_free()),
        batched_(batched) {}

  void bind(EventCore* core) {
    core_ = core;
    const std::uint32_t p = core->num_workers();
    uplinks_.resize(p);
    batches_.resize(p);
    // Reciprocal speed cache: a fresh 1.0 / speed division exactly
    // like the per-task mode's, redone only when a fault rescales the
    // speed, so batch durations stay bit-identical.
    inv_speed_.resize(p);
    for (std::uint32_t k = 0; k < p; ++k) {
      inv_speed_[k] = 1.0 / core->worker(k).speed;
    }
  }

  // Gives worker k work at `now`, or lets it retire.
  void start(std::uint32_t k, double now) {
    if (batched_) {
      start_next_batched(k, now);
    } else {
      pump_requests(k, now);
    }
  }

  void on_task_done(std::uint32_t k, double now) override {
    Uplink& x = uplinks_[k];
    assert(x.pending_tasks > 0);
    --x.pending_tasks;
    if (core_->worker(k).queue.empty()) {
      x.idle_since = now;  // potential starvation interval begins
    } else {
      start_next_task(k, now);
    }
    pump_requests(k, now);
  }

  void on_message(std::uint32_t k, double now) override {
    EventCore::Worker& w = core_->worker(k);
    Uplink& x = uplinks_[k];
    assert(x.request_outstanding);
    x.request_outstanding = false;
    ++core_->stats().workers[k].messages_received;
    for (const TaskId t : x.in_transit) w.queue.push_back(t);
    x.in_transit.clear();
    if (!w.queue.empty() && !w.running) {
      if (x.started) {
        core_->stats().workers[k].starved_time += now - x.idle_since;
      }
      x.started = true;
      start_next_task(k, now);
    }
    pump_requests(k, now);
  }

  void on_batch_done(std::uint32_t worker, double now,
                     std::uint32_t tag) override {
    Batch& b = batches_[worker];
    if (!b.active || tag != b.gen) return;  // superseded by a retime
    // A fault split never leaves a partially-credited batch behind: a
    // straggler rebuilds the batch (done = 0, fresh gen) and a crash
    // deactivates it, so this event always credits the whole run.
    assert(b.done == 0);
    core_->credit_batch_run(worker, b.start, b.duration, b.asg.task_count());
    b.active = false;
    start_next_batched(worker, now);
  }

  // Straggler fault: the in-flight task keeps its pre-fault finish
  // time, later batch members restart at the new speed — the same
  // schedule the per-task mode produces, where only queued (not yet
  // started) tasks see the slower speed.
  void on_speed_change(std::uint32_t worker, double now) override {
    if (!batched_) return;
    EventCore::Worker& w = core_->worker(worker);
    inv_speed_[worker] = 1.0 / w.speed;
    Batch& b = batches_[worker];
    if (!b.active) return;
    // Rare fault path: materialize the run-encoded batch so the split
    // below can index into it. Facade order == credited order.
    b.asg.flatten();
    double t = b.start;
    std::size_t i = b.done;
    std::vector<TaskId>& tasks = b.asg.tasks;
    while (i < tasks.size()) {
      const double finish = t + b.duration;
      if (!(finish < now)) break;
      core_->credit_batch_completion(worker, finish, b.duration);
      t = finish;
      ++i;
    }
    assert(i < tasks.size());
    const TaskId straddler = tasks[i];
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      w.queue.push_back(tasks[j]);
    }
    tasks.clear();
    tasks.push_back(straddler);
    b.done = 0;
    b.start = t;
    ++b.gen;  // the old batch-end event is now stale
    core_->push_batch_event(worker, t + b.duration, b.gen);
  }

  // Crash support: the core drains the runnable queue and the in-flight
  // task; this adds what only the client holds.
  void collect_pending(std::uint32_t worker,
                       std::vector<TaskId>& out) override {
    if (batched_) {
      split_batch_at_crash(worker, out);
      return;
    }
    Uplink& x = uplinks_[worker];
    out.insert(out.end(), x.in_transit.begin(), x.in_transit.end());
    x.in_transit.clear();
    x.pending_tasks = 0;
    x.request_outstanding = false;
  }

  bool requeue(std::vector<TaskId>& tasks) override {
    return strategy_.requeue(tasks);
  }

  void after_requeue(double now) override {
    // Survivors may have retired (empty pool) or be mid-computation;
    // either way the pool is non-empty again, so let them request. A
    // computing worker simply prefetches the requeued work if its
    // lookahead allows.
    for (std::uint32_t k = 0; k < core_->num_workers(); ++k) {
      EventCore::Worker& w = core_->worker(k);
      if (w.failed || (batched_ && batches_[k].active)) continue;
      w.retired = false;
      start(k, now);
    }
  }

 private:
  // Issues requests for worker k until its pending work reaches the
  // lookahead target, it has a request outstanding, or it retires.
  void pump_requests(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.failed) return;
    Uplink& x = uplinks_[k];
    while (!w.retired && !x.request_outstanding &&
           x.pending_tasks < lookahead_) {
      if (!strategy_.on_request(k, scratch_)) {
        core_->retire_worker(k, now);
        return;
      }
      if (core_->trace() != nullptr) {
        core_->trace()->on_assignment(k, now, scratch_);
      }
      const std::uint64_t blocks = scratch_.block_count();
      core_->stats().total_blocks += blocks;
      core_->stats().workers[k].blocks_received += blocks;
      x.pending_tasks += scratch_.task_count();
      if (free_link_) {
        scratch_.for_each_task([&](TaskId t) { w.queue.push_back(t); });
        start_next_task(k, now);
        continue;
      }
      // The message holds its tasks until it lands; at most one is on
      // the wire per worker, so one buffer per worker serves them all.
      scratch_.for_each_task([&](TaskId t) { x.in_transit.push_back(t); });
      const double start = std::max(now, link_free_);
      const double duration = comm_.transfer_time(blocks);
      link_free_ = start + duration;
      core_->stats().link_busy_time += duration;
      x.request_outstanding = true;
      core_->push_message(k, link_free_);
    }
  }

  void start_next_task(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.running || w.queue.empty()) return;
    const TaskId task = w.queue.front();
    w.queue.pop_front();
    core_->start_task(k, now, 1.0 / w.speed, task);
  }

  // Batched mode pulls assignments straight into the batch's own
  // Assignment (the strategy's callee-clears contract makes it a valid
  // scratch), so the common path copies nothing. w.queue only ever
  // holds a straggler split's remainder.
  void start_next_batched(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.failed) return;
    Batch& b = batches_[k];
    std::uint64_t count = 0;
    if (!w.queue.empty()) {
      // Rare path: a straggler split or post-crash restart left queued
      // tasks; they run before anything newly requested.
      b.asg.clear();
      w.queue.drain_into(b.asg.tasks);
      count = b.asg.tasks.size();
    } else {
      WorkerSimStats& stats = core_->stats().workers[k];
      for (;;) {
        if (w.retired) return;
        if (!strategy_.on_request(k, b.asg)) {
          core_->retire_worker(k, now);
          return;
        }
        const std::uint64_t blocks = b.asg.block_count();
        stats.blocks_received += blocks;
        core_->stats().total_blocks += blocks;
        count = b.asg.task_count();
        if (count != 0) break;
        // Zero-task assignments loop straight into another request.
      }
    }
    b.done = 0;
    b.start = now;
    const double d = inv_speed_[k];
    b.duration = d;
    // The batch stays run-encoded: the end time needs only the count,
    // accumulated with the identical per-task fp adds (end += d, count
    // times) the per-task mode performs.
    double end = now;
    for (std::uint64_t i = 0; i < count; ++i) end += d;
    b.active = true;
    core_->push_batch_event(k, end, b.gen);
  }

  // Crash in batched mode: credit the batch members that finished
  // strictly before the fault, hand the rest back for requeueing —
  // in-flight task last, matching the per-task mode's [queue...,
  // current] order. The in-flight task replays that mode's
  // charge-then-refund on busy time so the float state stays
  // bit-identical.
  void split_batch_at_crash(std::uint32_t worker, std::vector<TaskId>& out) {
    Batch& b = batches_[worker];
    if (!b.active) return;
    // Rare fault path: materialize the run-encoded batch (see
    // on_speed_change) before slicing it at the epoch boundary.
    b.asg.flatten();
    const double fault_time = core_->now();
    double t = b.start;
    std::size_t i = b.done;
    const std::vector<TaskId>& tasks = b.asg.tasks;
    while (i < tasks.size()) {
      const double finish = t + b.duration;
      if (!(finish < fault_time)) break;
      core_->credit_batch_completion(worker, finish, b.duration);
      t = finish;
      ++i;
    }
    assert(i < tasks.size());
    WorkerSimStats& stats = core_->stats().workers[worker];
    stats.busy_time += b.duration;
    stats.busy_time -= b.duration;
    for (std::size_t j = i + 1; j < tasks.size(); ++j) {
      out.push_back(tasks[j]);
    }
    out.push_back(tasks[i]);
    b.active = false;
  }

  /// Per-worker request state of the per-task mode (the core holds the
  /// runnable queue).
  struct Uplink {
    std::vector<TaskId> in_transit;  // the outstanding message's tasks
    std::uint64_t pending_tasks = 0;  // runnable + in transit + in flight
    bool request_outstanding = false;
    double idle_since = 0.0;  // start of the current starvation interval
    bool started = false;     // has ever had work (gates starvation stats)
  };

  /// An in-flight run of equal-duration tasks on one worker. `done`
  /// marks the prefix already credited by a fault split; `gen` tags
  /// the batch-end event so a retime can drop the superseded one.
  struct Batch {
    Assignment asg;  // the batch, possibly run-encoded; filled by on_request
    std::size_t done = 0;
    double start = 0.0;
    double duration = 0.0;
    std::uint32_t gen = 0;
    bool active = false;
  };

  Strategy& strategy_;
  const CommModel comm_;
  const std::uint32_t lookahead_;
  const bool free_link_;
  const bool batched_;
  EventCore* core_ = nullptr;
  std::vector<Uplink> uplinks_;
  std::vector<Batch> batches_;
  std::vector<double> inv_speed_;  // batched mode: 1.0 / worker speed
  double link_free_ = 0.0;         // when the serial uplink next idles
  Assignment scratch_;  // reused across requests; capacity retained
};

}  // namespace

SimResult simulate(Strategy& strategy, const Platform& platform,
                   const SimConfig& config, TraceSink* trace) {
  const auto p = static_cast<std::uint32_t>(platform.size());
  if (strategy.workers() != p) {
    throw std::invalid_argument(
        "simulate: strategy worker count does not match platform size");
  }
  config.comm.validate();
  if (config.lookahead == 0) {
    throw std::invalid_argument("simulate: lookahead must be >= 1");
  }

  const bool free_link = config.comm.is_free();
  EventCoreOptions options;
  options.seed = config.seed;
  // Each kind of link keeps its own perturbation draw sequence.
  options.perturb_stream =
      free_link ? "engine.perturb" : "engine_timed.perturb";
  options.error_prefix = "simulate";
  options.perturbation = config.perturbation;
  options.faults = config.faults;
  options.trace = trace;

  // Per-task events only where something needs them: a trace wants
  // every completion, perturbation redraws speed after each, and a
  // timed link or a deeper lookahead interleaves requests with
  // completions. Otherwise one event per assignment batch
  // (bit-identical results, far fewer heap operations).
  const bool batched = free_link && config.lookahead == 1 &&
                       trace == nullptr && !config.perturbation.enabled();
  Engine engine(strategy, config, batched);
  EventCore core(platform, options, engine);
  engine.bind(&core);

  // Simulated clock shared with the strategy for strategy-level trace
  // events (phase switches, per-block fetches). The guard detaches on
  // every exit path — the clock lives on the core.
  strategy.attach_observer(trace, core.clock());
  struct DetachGuard {
    Strategy& s;
    ~DetachGuard() { s.attach_observer(nullptr, nullptr); }
  } detach_guard{strategy};

  for (std::uint32_t k = 0; k < p; ++k) engine.start(k, 0.0);
  // The concrete-type loop: Engine is final, so the per-event
  // callbacks devirtualize and inline.
  core.run_loop(engine);
  return core.finish();
}

}  // namespace hetsched
