#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <utility>
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
/// - Free link: its tasks join the worker's runnable work at once, with
///   no event and no link time; zero-task assignments (all enabled
///   tasks already processed) loop into the next request, as a real
///   demand-driven worker would.
/// - Any other link: it becomes a message on the master's serial
///   uplink, and its arrival appends it to the runnable work. One
///   request per worker is outstanding at a time (a request/response
///   protocol).
///
/// A worker's runnable work (the in-flight task and every queued
/// assignment) is one chain of back-to-back tasks: the first starts at
/// `t` and lasts `head_d`, every later one lasts `d` = 1 / speed.
/// Finish times come from the sequential `f += d` adds a task-by-task
/// schedule performs, so every reported number is bit-identical however
/// the completions are grouped into events. Two groupings exist:
///
/// - Batched (the default): one event per worker, at the first moment
///   it must act. With no request outstanding that is the completion
///   that drops its pending count below `lookahead` (the request
///   trigger), or its last task once the strategy has retired it. With
///   a message on the wire there is no completion event at all: the
///   arrival (or a fault, if one comes first) credits the finished
///   prefix, and the arrival the starvation gap after it.
/// - Per-task, when something observes single completions (a trace
///   publishes each, perturbation redraws the speed after each): one
///   event per task, pushed when the task starts.
///
/// Faults split the chain at the strict `finish < fault_time` boundary
/// (a fault wins time ties). A straggler leaves the in-flight task's
/// finish time alone and slows the tasks after it; a crash requeues
/// `[queued..., in transit..., in flight]`.
class Engine final : public EventCoreClient {
 public:
  Engine(Strategy& strategy, const SimConfig& config, bool per_task)
      : strategy_(strategy),
        comm_(config.comm),
        lookahead_(config.lookahead),
        free_link_(config.comm.is_free()),
        per_task_(per_task) {}

  void bind(EventCore* core) {
    core_ = core;
    workers_.resize(core->num_workers());
    backlogs_.resize(core->num_workers());
    for (std::uint32_t k = 0; k < core->num_workers(); ++k) {
      workers_[k].d = 1.0 / core->worker(k).speed;
    }
  }

  // Issues requests for worker k until its pending work reaches the
  // lookahead target, it has a request outstanding, or it retires; then
  // (batched mode) arms its next event.
  void refill(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.failed) return;
    Chain& c = workers_[k];
    while (!w.retired && !c.outstanding && c.count < lookahead_) {
      Segment& seg = free_link_ ? next_slot(k) : backlogs_[k].transit;
      if (!strategy_.on_request(k, seg.asg)) {
        core_->retire_worker(k, now);
        break;
      }
      if (per_task_ && core_->trace() != nullptr) {
        core_->trace()->on_assignment(k, now, seg.asg);
      }
      const std::uint64_t blocks = seg.asg.block_count();
      core_->stats().total_blocks += blocks;
      core_->stats().workers[k].blocks_received += blocks;
      seg.count = seg.asg.task_count();
      if (free_link_) {
        commit(k, seg, now);
      } else {
        send(k, blocks, now);
      }
    }
    if (!per_task_) plan(k, w.retired);
  }

  void on_event(std::uint32_t k, double now, std::uint32_t tag) override {
    if (tag == kArrival) {
      arrive(k, now);
      return;
    }
    Chain& c = workers_[k];
    if (!c.armed || tag != c.gen) return;  // superseded by a re-plan
    c.armed = false;
    if (per_task_) {
      complete_head(k, now);
    } else {
      credit(k, c.due);
    }
    refill(k, now);
  }

  // Worker k's answer arrived over the link. Kept out of on_event, so
  // the completion path inlined into the event loop stays small.
  [[gnu::noinline]] void arrive(std::uint32_t k, double now) {
    Chain& c = workers_[k];
    assert(c.outstanding);
    c.outstanding = false;
    WorkerSimStats& stats = core_->stats().workers[k];
    ++stats.messages_received;
    if (!per_task_) settle(k, now, /*inclusive=*/true);
    Backlog& b = backlogs_[k];
    if (c.count == 0 && b.transit.count != 0) {
      if (b.started) stats.starved_time += now - c.t;  // t: last finish
      b.started = true;
    }
    Segment& seg = next_slot(k);
    std::swap(seg, b.transit);
    commit(k, seg, now);
    refill(k, now);
  }

  // Straggler fault: the in-flight task keeps its finish time, the
  // tasks after it run at the new speed.
  void on_speed_change(std::uint32_t k, double now) override {
    if (!per_task_) settle(k, now, /*inclusive=*/false);
    workers_[k].d = 1.0 / core_->worker(k).speed;
    if (!per_task_) plan(k, core_->worker(k).retired);
  }

  // Crash: credits what finished before the fault and hands back the
  // rest in a task-by-task schedule's `[queued..., in transit...,
  // in flight]` order. The in-flight task replays that schedule's
  // charge-at-start, refund-at-crash on busy time, so even its
  // rounding is identical.
  void collect_pending(std::uint32_t k, std::vector<TaskId>& out) override {
    Chain& c = workers_[k];
    Backlog& b = backlogs_[k];
    if (!per_task_) settle(k, core_->now(), /*inclusive=*/false);
    const auto append = [&out](TaskId t) { out.push_back(t); };
    if (c.count != 0) {
      // Rare fault path: index into the front assignment.
      Assignment& front = c.front.asg;
      front.flatten();
      const auto in_flight = front.tasks.begin() +
                             static_cast<std::ptrdiff_t>(c.skip);
      out.insert(out.end(), in_flight + 1, front.tasks.end());
      for (std::uint32_t i = c.head; i < c.tail; ++i) {
        b.queue[i].asg.for_each_task(append);
      }
      if (c.outstanding) b.transit.asg.for_each_task(append);
      out.push_back(*in_flight);
      WorkerSimStats& stats = core_->stats().workers[k];
      stats.busy_time += c.head_d;
      stats.busy_time -= c.head_d;
    } else if (c.outstanding) {
      b.transit.asg.for_each_task(append);
    }
    c.count = 0;
    c.head = c.tail = 0;
    c.outstanding = false;
    c.armed = false;
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
      if (w.failed) continue;
      w.retired = false;
      if (!per_task_) settle(k, now, /*inclusive=*/false);
      refill(k, now);
    }
  }

 private:
  /// One accepted assignment and its task count (0 = nothing to run).
  struct Segment {
    Assignment asg;
    std::uint64_t count = 0;
  };

  /// The part of a worker's state every event touches. `front` is the
  /// oldest assignment with an uncredited task (its first `skip` tasks
  /// are credited) and the Backlog's `queue[head, tail)` the younger
  /// ones, in arrival order. Buffers outside the live range keep their
  /// capacity, so the steady state allocates nothing, and the strategy
  /// writes each answer straight into the buffer it runs from (free
  /// link) or the message buffer (timed link).
  struct alignas(64) Chain {
    // Read or written on every event: one cache line.
    std::uint64_t count = 0;  // uncredited runnable tasks
    // Start of the first uncredited task; with count == 0, the last
    // finish (where a starvation interval begins).
    double t = 0.0;
    double head_d = 0.0;  // its duration
    double d = 0.0;       // duration of each later task: 1 / speed
    // The armed event: its time, the tasks it credits, and the tag
    // that tells it from superseded ones.
    double at = 0.0;
    std::uint64_t due = 0;
    std::uint32_t gen = 0;
    std::uint32_t head = 0;  // queue[head, tail) holds the younger
    std::uint32_t tail = 0;  // assignments
    bool armed = false;
    bool outstanding = false;
    Segment front;
    std::uint64_t skip = 0;
  };

  /// The rest of a worker's state, touched only on a finite link or
  /// with more than one assignment pending.
  struct Backlog {
    std::vector<Segment> queue;
    Segment transit;       // the message on the wire
    bool started = false;  // has ever had work (gates starvation stats)
  };

  // Completion events carry the chain's generation, which wraps at 24
  // bits; a message arrival carries kArrival, which no generation takes.
  static constexpr std::uint32_t kTagMask = 0xFFFFFFu;
  static constexpr std::uint32_t kArrival = kTagMask + 1;

  // Puts worker k's answer, `blocks` blocks, on the serial uplink.
  void send(std::uint32_t k, std::uint64_t blocks, double now) {
    const double start = std::max(now, link_free_);
    const double duration = comm_.transfer_time(blocks);
    link_free_ = start + duration;
    core_->stats().link_busy_time += duration;
    workers_[k].outstanding = true;
    core_->push_event(k, link_free_, kArrival);
  }

  // The buffer the next assignment runs from: the front one when the
  // worker has no work, else the queue slot past the live range.
  Segment& next_slot(std::uint32_t k) {
    Chain& c = workers_[k];
    if (c.count == 0) return c.front;
    Backlog& b = backlogs_[k];
    if (c.tail == b.queue.size()) make_slot(c, b);
    return b.queue[c.tail];
  }

  // Frees the queue slot past the live range: moves the live segments
  // to the start, or grows the queue when they fill it.
  [[gnu::noinline]] static void make_slot(Chain& c, Backlog& b) {
    if (c.head != 0) {
      std::rotate(b.queue.begin(),
                  b.queue.begin() + static_cast<std::ptrdiff_t>(c.head),
                  b.queue.begin() + static_cast<std::ptrdiff_t>(c.tail));
      c.tail -= c.head;
      c.head = 0;
    } else {
      b.queue.emplace_back();
    }
  }

  // Appends `seg`, filled in the buffer next_slot chose, to the chain;
  // an idle worker starts its first task now.
  void commit(std::uint32_t k, Segment& seg, double now) {
    if (seg.count == 0) return;
    Chain& c = workers_[k];
    // A traced completion names its task, read by index.
    if (per_task_ && core_->trace() != nullptr) seg.asg.flatten();
    if (c.count != 0) {
      ++c.tail;
      c.count += seg.count;
      return;
    }
    c.skip = 0;
    c.count = seg.count;
    c.t = now;
    c.head_d = c.d;
    if (per_task_) arm_head(k);
  }

  // Credits the next n tasks of the chain in start order.
  void credit(std::uint32_t k, std::uint64_t n) {
    if (n == 0) return;
    Chain& c = workers_[k];
    assert(n <= c.count);
    c.t = core_->credit_batch_run(k, c.t, c.head_d, c.d, n);
    c.head_d = c.d;
    c.count -= n;
    if (c.count == 0) {
      c.head = c.tail = 0;
      return;
    }
    c.skip += n;
    while (c.skip >= c.front.count) {
      c.skip -= c.front.count;
      std::swap(c.front, backlogs_[k].queue[c.head++]);
    }
  }

  // Batched mode: credits the tasks finishing before `now` (or at it,
  // when `inclusive`).
  void settle(std::uint32_t k, double now, bool inclusive) {
    const Chain& c = workers_[k];
    std::uint64_t n = 0;
    double finish = c.t + c.head_d;
    while (n < c.count && (finish < now || (inclusive && finish == now))) {
      ++n;
      finish += c.d;
    }
    credit(k, n);
  }

  // Per-task mode: the head task completed at `now`.
  void complete_head(std::uint32_t k, double now) {
    Chain& c = workers_[k];
    TraceSink* trace = core_->trace();
    const TaskId task = trace != nullptr ? c.front.asg.tasks[c.skip] : 0;
    credit(k, 1);
    if (trace != nullptr) trace->on_completion(k, now, task);
    if (core_->perturbation_enabled()) {
      core_->perturb_speed(k);
      c.d = 1.0 / core_->worker(k).speed;
      c.head_d = c.d;
    }
    if (c.count != 0) arm_head(k);
  }

  // Per-task mode: one event at the head task's finish.
  void arm_head(std::uint32_t k) {
    Chain& c = workers_[k];
    c.armed = true;
    c.gen = (c.gen + 1) & kTagMask;
    core_->push_event(k, c.t + c.head_d, c.gen);
  }

  // Batched mode: arms worker k's one event at the first moment it must
  // act, or none while its message is on the wire or it has no work. A
  // worker that may request acts at the completion that drops its
  // pending count below the lookahead; a retired one at its last task.
  void plan(std::uint32_t k, bool retired) {
    Chain& c = workers_[k];
    if (c.outstanding || c.count == 0) {
      c.armed = false;
      return;
    }
    assert(retired || c.count >= lookahead_);
    c.due = retired ? c.count : c.count - lookahead_ + 1;
    double at = c.t + c.head_d;
    for (std::uint64_t i = 1; i < c.due; ++i) at += c.d;
    if (c.armed && at == c.at) return;  // the armed event still stands
    c.armed = true;
    c.at = at;
    c.gen = (c.gen + 1) & kTagMask;
    core_->push_event(k, at, c.gen);
  }

  Strategy& strategy_;
  const CommModel comm_;
  const std::uint32_t lookahead_;
  const bool free_link_;
  const bool per_task_;
  EventCore* core_ = nullptr;
  std::vector<Chain> workers_;
  std::vector<Backlog> backlogs_;
  double link_free_ = 0.0;  // when the serial uplink next idles
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

  // Per-task events only where something observes single completions:
  // a trace publishes each one and perturbation redraws the speed after
  // each. Otherwise one event per worker action (bit-identical results,
  // far fewer heap operations).
  const bool per_task =
      trace != nullptr || config.perturbation.enabled();
  Engine engine(strategy, config, per_task);
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

  for (std::uint32_t k = 0; k < p; ++k) engine.refill(k, 0.0);
  // The concrete-type loop: Engine is final, so the per-event
  // callbacks devirtualize and inline.
  core.run_loop(engine);
  return core.finish();
}

}  // namespace hetsched
