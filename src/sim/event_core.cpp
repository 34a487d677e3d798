#include "sim/event_core.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace hetsched {

double SimResult::finish_spread() const {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (const auto& w : workers) {
    if (w.tasks_done == 0) continue;
    lo = std::min(lo, w.finish_time);
    hi = std::max(hi, w.finish_time);
  }
  if (hi <= 0.0 || makespan <= 0.0) return 0.0;
  return (hi - lo) / makespan;
}

double SimResult::starvation_fraction() const {
  double starved = 0.0;
  double active = 0.0;
  for (const auto& w : workers) {
    starved += w.starved_time;
    active += w.finish_time;
  }
  return active > 0.0 ? starved / active : 0.0;
}

void EventCoreClient::on_speed_change(std::uint32_t worker, double now) {
  (void)worker;
  (void)now;
}

void EventCore::validate_faults(const std::vector<WorkerFault>& faults,
                                std::uint32_t workers,
                                const char* error_prefix) {
  const std::string prefix(error_prefix);
  for (const WorkerFault& fault : faults) {
    if (fault.worker >= workers) {
      throw std::invalid_argument(prefix + ": fault targets unknown worker");
    }
    if (fault.factor < 0.0 || fault.factor >= 1.0) {
      throw std::invalid_argument(
          prefix + ": fault factor must be 0 (crash) or in (0, 1)");
    }
    if (fault.time < 0.0) {
      throw std::invalid_argument(prefix + ": fault time must be >= 0");
    }
  }
}

EventCore::EventCore(const Platform& platform, const EventCoreOptions& options,
                     EventCoreClient& client)
    : client_(client),
      trace_(options.trace),
      error_prefix_(options.error_prefix),
      perturbation_(options.perturbation),
      perturb_rng_(derive_stream(options.seed, options.perturb_stream)) {
  const auto p = static_cast<std::uint32_t>(platform.size());
  validate_faults(options.faults, p, options.error_prefix);
  workers_.resize(p);
  result_.workers.resize(p);
  for (std::uint32_t k = 0; k < p; ++k) {
    workers_[k].speed = platform.speed(k);
    workers_[k].base_speed = platform.speed(k);
  }
  // Faults used to be heap events pushed at construction, so their
  // sequence numbers (0..F-1) were smaller than any engine event's and
  // a fault won every time tie. A stable sort by time plus the
  // `<= top().time` merge in run_loop() reproduces exactly that order;
  // starting seq_ past the fault count keeps engine-event sequence
  // numbers identical to the single-heap layout.
  faults_ = options.faults;
  std::stable_sort(faults_.begin(), faults_.end(),
                   [](const WorkerFault& a, const WorkerFault& b) {
                     return a.time < b.time;
                   });
  seq_ = faults_.size();
  // About one pending event per worker in the steady state; a timed
  // link's message events grow the vector once and it stays.
  events_.reserve(workers_.size() + 2);
}

void EventCore::push_event(std::uint32_t k, double time, std::uint32_t tag) {
  events_.push(Event{time, seq_++, k, tag});
}

void EventCore::retire_worker(std::uint32_t k, double now) {
  workers_[k].retired = true;
  if (trace_ != nullptr) trace_->on_retire(k, now);
}

// Crashes return the victim's unfinished tasks to the master; any
// worker that had already retired (empty pool at the time) must be
// woken so the requeued tasks still complete.
void EventCore::crash_worker(std::uint32_t k, double now) {
  Worker& w = workers_[k];
  if (w.failed) return;
  std::vector<TaskId> unfinished;
  client_.collect_pending(k, unfinished);
  w.failed = true;  // drops the worker's pending events
  ++result_.crashed_workers;
  if (trace_ != nullptr) trace_->on_retire(k, now);
  if (unfinished.empty()) return;
  if (!client_.requeue(unfinished)) {
    throw std::invalid_argument(
        std::string(error_prefix_) +
        ": crash injected but the strategy cannot requeue tasks");
  }
  result_.requeued_tasks += unfinished.size();
  client_.after_requeue(now);
}

void EventCore::apply_fault(const WorkerFault& fault) {
  now_ = fault.time;
  if (fault.factor == 0.0) {
    crash_worker(fault.worker, fault.time);
    return;
  }
  Worker& w = workers_[fault.worker];
  if (w.failed) return;
  // Straggler: the running task keeps its finish time (the slowdown
  // applies from the next task on); clients re-time whatever else they
  // scheduled in on_speed_change.
  w.speed *= fault.factor;
  w.base_speed *= fault.factor;
  client_.on_speed_change(fault.worker, fault.time);
}

SimResult EventCore::finish() {
  for (std::uint32_t k = 0; k < num_workers(); ++k) {
    result_.workers[k].final_speed = workers_[k].speed;
  }
  return std::move(result_);
}

}  // namespace hetsched
