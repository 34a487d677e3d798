#include "dag/dag_engine.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

#include "sim/event_core.hpp"

namespace hetsched {

RandomDagPolicy::RandomDagPolicy(std::uint64_t seed)
    : rng_(derive_stream(seed, "dag.random")) {}

DagTaskId RandomDagPolicy::select(const std::vector<DagTaskId>& ready,
                                  const DagPolicyContext&) {
  return ready[rng_.next_below(ready.size())];
}

DagTaskId CriticalPathDagPolicy::select(const std::vector<DagTaskId>& ready,
                                        const DagPolicyContext& context) {
  DagTaskId best = ready.front();
  for (const DagTaskId t : ready) {
    if (context.bottom_levels[t] > context.bottom_levels[best] ||
        (context.bottom_levels[t] == context.bottom_levels[best] && t < best)) {
      best = t;
    }
  }
  return best;
}

DagTaskId DataAwareDagPolicy::select(const std::vector<DagTaskId>& ready,
                                     const DagPolicyContext& context) {
  // Maximize the number of input tiles already valid on the requesting
  // worker (fewer transfers); break ties toward the critical path.
  DagTaskId best = ready.front();
  auto cached_inputs = [&](DagTaskId t) {
    int hits = 0;
    for (const TileId tile : context.graph.task(t).inputs) {
      if (context.worker_tiles.test(tile)) ++hits;
    }
    return hits;
  };
  int best_hits = cached_inputs(best);
  for (const DagTaskId t : ready) {
    const int hits = cached_inputs(t);
    if (hits > best_hits ||
        (hits == best_hits &&
         context.bottom_levels[t] > context.bottom_levels[best])) {
      best = t;
      best_hits = hits;
    }
  }
  return best;
}

std::unique_ptr<DagPolicy> make_dag_policy(const std::string& name,
                                           std::uint64_t seed) {
  if (name == "RandomDag") return std::make_unique<RandomDagPolicy>(seed);
  if (name == "CriticalPathDag") {
    return std::make_unique<CriticalPathDagPolicy>();
  }
  if (name == "DataAwareDag") return std::make_unique<DataAwareDagPolicy>();
  throw std::invalid_argument("unknown DAG policy: " + name);
}

const std::vector<std::string>& dag_policy_names() {
  static const std::vector<std::string> names = {"RandomDag", "CriticalPathDag",
                                                 "DataAwareDag"};
  return names;
}

double DagSimResult::makespan_lower_bound(const TaskGraph& graph,
                                          const Platform& platform) {
  const double fastest =
      *std::max_element(platform.speeds().begin(), platform.speeds().end());
  return std::max(graph.critical_path() / fastest,
                  graph.total_work() / platform.total_speed());
}

namespace {

/// The DAG engine on top of EventCore: the ready set plus indegree
/// counting replace the master strategy, and the write-invalidate tile
/// caches replace the per-worker block sets. A worker runs one task at
/// a time, with one event at its finish.
class DagEngine final : public EventCoreClient {
 public:
  DagEngine(const TaskGraph& graph, DagPolicy& policy,
            DagSimResult& result)
      : graph_(graph),
        policy_(policy),
        result_(result),
        levels_(graph.bottom_levels()),
        successors_(graph.successors()) {
    const auto n_tasks = static_cast<DagTaskId>(graph.num_tasks());
    indegree_.resize(n_tasks);
    for (DagTaskId t = 0; t < n_tasks; ++t) {
      indegree_[t] = static_cast<std::uint32_t>(graph.task(t).deps.size());
      if (indegree_[t] == 0) ready_.push_back(t);
    }
  }

  void bind(EventCore* core) {
    core_ = core;
    caches_.assign(core->num_workers(), DynamicBitset(graph_.num_tiles()));
    running_.resize(core->num_workers());
  }

  bool has_ready() const noexcept { return !ready_.empty(); }

  void mark_idle(std::uint32_t k) { idle_.push_back(k); }

  void assign(std::uint32_t k, double now) {
    assert(!ready_.empty());
    const DagPolicyContext context{graph_, levels_, caches_[k]};
    const DagTaskId chosen = policy_.select(ready_, context);
    const auto it = std::find(ready_.begin(), ready_.end(), chosen);
    assert(it != ready_.end());
    *it = ready_.back();
    ready_.pop_back();

    // Charge the tile transfers this worker needs.
    Assignment traced;
    for (const TileId tile : graph_.task(chosen).inputs) {
      if (caches_[k].set_if_clear(tile)) {
        ++core_->stats().total_blocks;
        ++core_->stats().workers[k].blocks_received;
        if (core_->trace() != nullptr) {
          traced.blocks.push_back(BlockRef{Operand::kMatA, tile, 0});
        }
      }
    }
    if (core_->trace() != nullptr) {
      traced.tasks.push_back(chosen);
      core_->trace()->on_assignment(k, now, traced);
    }
    const double duration =
        graph_.task(chosen).work / core_->worker(k).speed;
    running_[k] = Running{chosen, now, duration, true};
    core_->push_event(k, now + duration, 0);  // never superseded: no tag
  }

  // Serve earlier-idled workers first (crash victims are skipped and
  // dropped from the queue).
  void serve_idle(double now) {
    while (!idle_.empty() && !ready_.empty()) {
      const std::uint32_t k = idle_.front();
      idle_.pop_front();
      if (core_->worker(k).failed) continue;
      assign(k, now);
    }
  }

  void on_event(std::uint32_t k, double now, std::uint32_t) override {
    Running& r = running_[k];
    r.active = false;
    const DagTaskId task = r.task;
    core_->credit_batch_run(k, r.start, r.duration, r.duration, 1);
    if (core_->trace() != nullptr) {
      core_->trace()->on_completion(k, now, task);
    }
    if (core_->perturbation_enabled()) core_->perturb_speed(k);
    result_.completion_order.push_back(task);

    // Write-invalidate: the writer keeps the only valid copy of the
    // tile it produced.
    if (const TileId out = graph_.task(task).output; out != kNoTile) {
      for (std::uint32_t other = 0; other < core_->num_workers(); ++other) {
        if (other != k) caches_[other].reset(out);
      }
      caches_[k].set(out);
    }

    // Unlock successors.
    for (const DagTaskId s : successors_[task]) {
      assert(indegree_[s] > 0);
      if (--indegree_[s] == 0) ready_.push_back(s);
    }

    idle_.push_back(k);
    serve_idle(now);
  }

  // Crash support: the running task is the only pending work a DAG
  // worker holds, and its tile cache is simply lost. The task's busy
  // time is charged and refunded, as a charge-at-start schedule does,
  // so even its rounding matches one.
  void collect_pending(std::uint32_t k, std::vector<TaskId>& out) override {
    caches_[k].clear();
    Running& r = running_[k];
    if (!r.active) return;
    r.active = false;
    out.push_back(r.task);
    double& busy = core_->stats().workers[k].busy_time;
    busy += r.duration;
    busy -= r.duration;
  }

  bool requeue(std::vector<TaskId>& tasks) override {
    // Dependencies of an assigned task were satisfied when it was
    // handed out and completions only add to that, so the task goes
    // straight back to the ready set.
    for (const TaskId t : tasks) {
      ready_.push_back(static_cast<DagTaskId>(t));
    }
    return true;
  }

  void after_requeue(double now) override { serve_idle(now); }

 private:
  /// The task a worker runs, if `active`, from `start` for `duration`.
  struct Running {
    DagTaskId task = 0;
    double start = 0.0;
    double duration = 0.0;
    bool active = false;
  };

  const TaskGraph& graph_;
  DagPolicy& policy_;
  DagSimResult& result_;
  std::vector<double> levels_;
  std::vector<std::vector<DagTaskId>> successors_;
  std::vector<std::uint32_t> indegree_;
  std::vector<DagTaskId> ready_;
  std::vector<DynamicBitset> caches_;
  std::deque<std::uint32_t> idle_;
  std::vector<Running> running_;
  EventCore* core_ = nullptr;
};

}  // namespace

DagSimResult simulate_dag(const TaskGraph& graph, const Platform& platform,
                          DagPolicy& policy, const DagSimConfig& config,
                          TraceSink* trace) {
  graph.validate();
  const auto p = static_cast<std::uint32_t>(platform.size());
  const auto n_tasks = static_cast<DagTaskId>(graph.num_tasks());

  DagSimResult result;
  result.completion_order.reserve(n_tasks);

  EventCoreOptions options;
  options.seed = config.seed;
  options.perturb_stream = "dag.perturb";
  options.error_prefix = "simulate_dag";
  options.perturbation = config.perturbation;
  options.faults = config.faults;
  options.trace = trace;

  DagEngine engine(graph, policy, result);
  EventCore core(platform, options, engine);
  engine.bind(&core);

  // Hand out initial work in worker-id order; the rest start idle
  // (a fresh Cholesky graph has a single ready task, POTRF(0)).
  std::uint32_t first_idle = 0;
  while (first_idle < p && engine.has_ready()) engine.assign(first_idle++, 0.0);
  for (std::uint32_t k = first_idle; k < p; ++k) engine.mark_idle(k);

  core.run_loop(engine);
  SimResult stats = core.finish();

  result.makespan = stats.makespan;
  result.total_transfers = stats.total_blocks;
  result.total_tasks_done = stats.total_tasks_done;
  result.requeued_tasks = stats.requeued_tasks;
  result.crashed_workers = stats.crashed_workers;
  result.workers = std::move(stats.workers);

  // With every worker alive an incomplete run is an engine bug; with
  // crashes it just means the survivors could not finish the graph
  // (e.g. all workers dead), which the stats report.
  if (result.total_tasks_done != n_tasks && result.crashed_workers == 0) {
    throw std::logic_error("simulate_dag: not all tasks completed");
  }
  return result;
}

DagSimResult simulate_dag(const TaskGraph& graph, const Platform& platform,
                          DagPolicy& policy, std::uint64_t seed) {
  DagSimConfig config;
  config.seed = seed;
  return simulate_dag(graph, platform, policy, config, nullptr);
}

}  // namespace hetsched
