#include "sim/engine.hpp"

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/event_core.hpp"

namespace hetsched {

namespace {

/// The free-overlap engine on top of EventCore: refilling a worker
/// means pulling assignments from the strategy until it has a runnable
/// task or retires; communication costs volume only.
///
/// Two scheduling modes share the pull loop:
///
/// - Per-task (trace attached or perturbation enabled): one completion
///   event per task, exactly the paper's event order — the trace sees
///   every completion and the perturbation redraws speed after each.
/// - Batched (the common measurement path): a worker's whole runnable
///   queue becomes one heap event at the batch end. Completion times
///   and busy-time accumulation replay the identical sequential
///   floating-point adds the per-task mode performs (t += d per task),
///   so every reported number is bit-identical; faults split the batch
///   at the same strict `finish < fault_time` boundary the per-task
///   event order produces (a fault always won time ties via its
///   smaller sequence number).
class FlatEngine final : public EventCoreClient {
 public:
  FlatEngine(Strategy& strategy, bool batched)
      : strategy_(strategy), batched_(batched) {}

  void bind(EventCore* core) {
    core_ = core;
    if (batched_) {
      batches_.resize(core->num_workers());
      // Reciprocal speed cache: a fresh 1.0 / speed division exactly
      // like the per-task mode's, redone only when a fault rescales
      // the speed, so batch durations stay bit-identical.
      inv_speed_.resize(core->num_workers());
      for (std::uint32_t k = 0; k < core->num_workers(); ++k) {
        inv_speed_[k] = 1.0 / core->worker(k).speed;
      }
    }
  }

  // Pulls work for worker k until it has a task (or a batch) or
  // retires.
  void start_next(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.failed) return;
    if (batched_) {
      start_next_batched(k, now, w);
      return;
    }
    WorkerSimStats& stats = core_->stats().workers[k];
    while (w.queue.empty()) {
      if (w.retired) return;
      if (!strategy_.on_request(k, scratch_)) {
        core_->retire_worker(k, now);
        return;
      }
      const std::uint64_t blocks = scratch_.block_count();
      stats.blocks_received += blocks;
      core_->stats().total_blocks += blocks;
      scratch_.for_each_task([&](TaskId t) { w.queue.push_back(t); });
      if (core_->trace() != nullptr) {
        core_->trace()->on_assignment(k, now, scratch_);
      }
      // Zero-task assignments (all enabled tasks already processed)
      // loop straight into another request, as a real demand-driven
      // worker would.
    }
    const TaskId task = w.queue.front();
    w.queue.pop_front();
    core_->start_task(k, now, 1.0 / w.speed, task);
  }

  // Batched mode pulls assignments straight into the batch's own
  // Assignment (the strategy's callee-clears contract makes it a valid
  // scratch), so the common path copies nothing. w.queue only ever
  // holds a straggler split's remainder.
  void start_next_batched(std::uint32_t k, double now, EventCore::Worker& w) {
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
        // Zero-task assignments loop straight into another request, as
        // a real demand-driven worker would (no trace in batched mode).
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

  void on_task_done(std::uint32_t worker, double now) override {
    start_next(worker, now);
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
    start_next(worker, now);
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

  // Crash: credit the batch members that finished strictly before the
  // fault, hand the rest back for requeueing — in-flight task last,
  // matching the per-task engine's [queue..., current] order. The
  // in-flight task replays that engine's charge-then-refund on busy
  // time so the float state stays bit-identical.
  void collect_pending(std::uint32_t worker,
                       std::vector<TaskId>& out) override {
    if (!batched_) return;
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

  bool requeue(std::vector<TaskId>& tasks) override {
    return strategy_.requeue(tasks);
  }

  void after_requeue(double now) override {
    for (std::uint32_t k = 0; k < core_->num_workers(); ++k) {
      EventCore::Worker& candidate = core_->worker(k);
      if (candidate.failed || candidate.running) continue;
      if (batched_ && batches_[k].active) continue;
      candidate.retired = false;  // pool is non-empty again
      start_next(k, now);
    }
  }

 private:
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
  EventCore* core_ = nullptr;
  const bool batched_;
  std::vector<Batch> batches_;
  std::vector<double> inv_speed_;  // batched mode: 1.0 / worker speed
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

  EventCoreOptions options;
  options.seed = config.seed;
  options.perturb_stream = "engine.perturb";
  options.error_prefix = "simulate";
  options.perturbation = config.perturbation;
  options.faults = config.faults;
  options.trace = trace;

  // Per-task events only where someone observes them: a trace wants
  // every completion, perturbation redraws speed after each task.
  // Otherwise one event per assignment batch (bit-identical results,
  // far fewer heap operations).
  const bool batched = !config.perturbation.enabled() && trace == nullptr;
  FlatEngine engine(strategy, batched);
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

  for (std::uint32_t k = 0; k < p; ++k) engine.start_next(k, 0.0);
  // The concrete-type loop: FlatEngine is final, so the per-event
  // callbacks devirtualize and inline.
  core.run_loop(engine);
  return core.finish();
}

}  // namespace hetsched
