#include "sim/engine_timed.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>
#include <utility>

#include "sim/event_core.hpp"

namespace hetsched {

namespace {

/// The comm-timed engine on top of EventCore. Runnable tasks live in
/// the core worker queue; what this client adds is the serial uplink:
/// assignments become in-transit messages whose arrival events feed
/// the queue, and the prefetch lookahead decides when to request more.
class TimedEngine final : public EventCoreClient {
 public:
  TimedEngine(Strategy& strategy, const TimedSimConfig& config)
      : strategy_(strategy), config_(config) {}

  void bind(EventCore* core) {
    core_ = core;
    extra_.resize(core->num_workers());
  }

  // Issues requests for worker k until its pending work reaches the
  // lookahead target, it has a request in flight, or it retires. Each
  // accepted assignment becomes one message on the serial link.
  void pump_requests(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.failed) return;
    Uplink& x = extra_[k];
    while (!w.retired && !x.request_outstanding &&
           x.pending_tasks < config_.lookahead) {
      if (!strategy_.on_request(k, scratch_)) {
        core_->retire_worker(k, now);
        return;
      }
      if (core_->trace() != nullptr) {
        core_->trace()->on_assignment(k, now, scratch_);
      }
      InFlight msg;
      // The message owns its task list (it outlives this request), so
      // expand out of the scratch rather than stealing its capacity.
      msg.tasks.reserve(scratch_.task_count());
      scratch_.for_each_task([&](TaskId t) { msg.tasks.push_back(t); });
      msg.blocks = scratch_.block_count();
      x.pending_tasks += msg.tasks.size();
      core_->stats().total_blocks += msg.blocks;
      core_->stats().workers[k].blocks_received += msg.blocks;

      const double start = std::max(now, link_free_);
      const double duration = config_.comm.transfer_time(msg.blocks);
      link_free_ = start + duration;
      core_->stats().link_busy_time += duration;
      x.in_transit.push_back(std::move(msg));
      x.request_outstanding = true;
      core_->push_message(k, link_free_);
      // Only one outstanding request per worker: the next one is issued
      // when this message lands (models a request/response protocol).
    }
  }

  void start_next_task(std::uint32_t k, double now) {
    EventCore::Worker& w = core_->worker(k);
    if (w.running || w.queue.empty()) return;
    const TaskId task = w.queue.front();
    w.queue.pop_front();
    core_->start_task(k, now, 1.0 / w.speed, task);
  }

  void on_message(std::uint32_t k, double now) override {
    EventCore::Worker& w = core_->worker(k);
    Uplink& x = extra_[k];
    assert(!x.in_transit.empty());
    InFlight msg = std::move(x.in_transit.front());
    x.in_transit.pop_front();
    x.request_outstanding = false;
    ++core_->stats().workers[k].messages_received;
    for (const TaskId t : msg.tasks) w.queue.push_back(t);
    if (!w.queue.empty() && !w.running) {
      if (x.started) {
        core_->stats().workers[k].starved_time += now - x.idle_since;
      }
      x.started = true;
      start_next_task(k, now);
    }
    pump_requests(k, now);
  }

  void on_task_done(std::uint32_t k, double now) override {
    EventCore::Worker& w = core_->worker(k);
    Uplink& x = extra_[k];
    assert(x.pending_tasks > 0);
    --x.pending_tasks;
    if (!w.queue.empty()) {
      start_next_task(k, now);
    } else {
      x.idle_since = now;  // potential starvation interval begins
    }
    pump_requests(k, now);
  }

  // Crash support: the core drains the runnable queue and the in-flight
  // task; this adds everything still on the wire.
  void collect_pending(std::uint32_t k, std::vector<TaskId>& out) override {
    Uplink& x = extra_[k];
    for (const InFlight& msg : x.in_transit) {
      out.insert(out.end(), msg.tasks.begin(), msg.tasks.end());
    }
    x.in_transit.clear();
    x.pending_tasks = 0;
    x.request_outstanding = false;
  }

  bool requeue(std::vector<TaskId>& tasks) override {
    return strategy_.requeue(tasks);
  }

  void after_requeue(double now) override {
    // Survivors may have retired (empty pool) or be mid-computation;
    // either way the pool is non-empty again, so let them pump. A
    // computing worker simply prefetches the requeued work.
    for (std::uint32_t k = 0; k < core_->num_workers(); ++k) {
      if (core_->worker(k).failed) continue;
      core_->worker(k).retired = false;
      pump_requests(k, now);
    }
  }

 private:
  struct InFlight {
    std::vector<TaskId> tasks;
    std::uint64_t blocks = 0;
  };
  /// Per-worker uplink bookkeeping (the core holds the runnable queue).
  struct Uplink {
    std::deque<InFlight> in_transit;  // ordered by arrival
    std::uint64_t pending_tasks = 0;  // runnable + in transit + in flight
    bool request_outstanding = false;
    double idle_since = 0.0;  // start of the current starvation interval
    bool started = false;     // has ever had work (gates starvation stats)
  };

  Strategy& strategy_;
  const TimedSimConfig& config_;
  EventCore* core_ = nullptr;
  std::vector<Uplink> extra_;
  double link_free_ = 0.0;
  Assignment scratch_;  // reused across requests; capacity retained
};

}  // namespace

TimedSimResult simulate_timed(Strategy& strategy, const Platform& platform,
                              const TimedSimConfig& config, TraceSink* trace) {
  const auto p = static_cast<std::uint32_t>(platform.size());
  if (strategy.workers() != p) {
    throw std::invalid_argument(
        "simulate_timed: strategy worker count does not match platform");
  }
  config.comm.validate();
  if (config.lookahead == 0) {
    throw std::invalid_argument("simulate_timed: lookahead must be >= 1");
  }

  EventCoreOptions options;
  options.seed = config.seed;
  options.perturb_stream = "engine_timed.perturb";
  options.error_prefix = "simulate_timed";
  options.perturbation = config.perturbation;
  options.faults = config.faults;
  options.trace = trace;

  TimedEngine engine(strategy, config);
  EventCore core(platform, options, engine);
  engine.bind(&core);

  strategy.attach_observer(trace, core.clock());
  struct DetachGuard {
    Strategy& s;
    ~DetachGuard() { s.attach_observer(nullptr, nullptr); }
  } detach_guard{strategy};

  for (std::uint32_t k = 0; k < p; ++k) engine.pump_requests(k, 0.0);
  core.run_loop(engine);
  return core.finish();
}

}  // namespace hetsched
