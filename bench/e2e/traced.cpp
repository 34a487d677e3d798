#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "analysis/homogeneous.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "dag/dag_engine.hpp"
#include "platform/lower_bound.hpp"
#include "sim/engine.hpp"
#include "sim/engine_timed.hpp"

namespace e2e {

using namespace hetsched;

namespace {

// Requests outside phase 1 are short and numerous; only 1 in this many
// is timed, and the class total is scaled up from the sample.
constexpr std::uint64_t kSampleEvery = 64;

// Request-level intervals are read from the TSC on x86-64: every
// phase-1 request is timed, and a TSC read costs about half a
// steady_clock read (20 vs 43 ns on the 4-core Xeon VM the README
// numbers come from), which halves the tracing overhead on short
// phase-1 requests. Ticks become seconds through a rate measured
// against the steady clock over the whole pass (invariant TSC assumed).
#if defined(__x86_64__)
inline std::int64_t tick() { return static_cast<std::int64_t>(__rdtsc()); }
#else
inline std::int64_t tick() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
#endif

/// The tick source's own cost and its rate, measured per traced pass.
class TickClock {
 public:
  TickClock() {
    // Median cost of one read as it shows up inside an interval;
    // subtracted from every interval so a 50 ns request is not reported
    // as 70 ns because of the timer around it.
    std::vector<std::int64_t> d(1001);
    for (std::int64_t& x : d) {
      const std::int64_t t0 = tick();
      x = tick() - t0;
    }
    std::nth_element(d.begin(), d.begin() + 500, d.end());
    overhead_ = d[500];
  }

  /// Ticks since `t0`, less one read. Clamped at 0: a call cheaper than
  /// the timer's jitter (a random DAG pick) reads 0.
  std::int64_t since(std::int64_t t0) const {
    return std::max<std::int64_t>(0, tick() - t0 - overhead_);
  }

  /// Seconds per tick over the time since construction.
  double seconds_per_tick() const {
    const std::int64_t ticks = tick() - t0_;
    return ticks > 0 ? (now_s() - s0_) / static_cast<double>(ticks) : 0.0;
  }

 private:
  double s0_ = now_s();
  std::int64_t t0_ = tick();
  std::int64_t overhead_ = 0;
};

/// Calls of one kind (requests of one phase class, or DAG selects).
/// Some are timed in full (every phase-1 request, and the first call of
/// each kind in a rep, which may pay a one-time rebuild); of the rest,
/// 1 in kSampleEvery is timed and stands for the others.
struct CallClass {
  std::uint64_t calls = 0;
  std::uint64_t full = 0;
  std::int64_t full_ticks = 0;
  std::uint64_t sampled = 0;
  std::int64_t sampled_ticks = 0;

  /// Runs fn(), timing it if `in_full` or if it is due as a sample.
  template <typename Fn>
  auto measure(bool in_full, const TickClock& clock, Fn&& fn) {
    const bool sample = !in_full && (calls - full) % kSampleEvery == 0;
    ++calls;
    if (!in_full && !sample) return fn();
    const std::int64_t t0 = tick();
    auto result = fn();
    const std::int64_t ticks = clock.since(t0);
    if (in_full) {
      full_ticks += ticks;
      ++full;
    } else {
      sampled_ticks += ticks;
      ++sampled;
    }
    return result;
  }

  double total_ticks() const {
    double t = static_cast<double>(full_ticks);
    if (sampled != 0) {
      t += static_cast<double>(sampled_ticks) *
           static_cast<double>(calls - full) / static_cast<double>(sampled);
    }
    return t;
  }
  void add(const CallClass& o) {
    calls += o.calls;
    full += o.full;
    full_ticks += o.full_ticks;
    sampled += o.sampled;
    sampled_ticks += o.sampled_ticks;
  }
};

/// Request-level counters of the strategies of one kernel under one
/// engine. Requests are classed by the phase the strategy was in when
/// the request arrived: 0 = pointwise (no phase structure), 1 = the
/// data-aware phase, 2 = after the 2-phase switch.
struct StrategyCounters {
  CallClass pointwise, phase1, phase2;
  std::uint64_t phase1_tasks = 0;
  std::uint64_t empty = 0;  // granted, but with zero tasks
  std::uint64_t requeues = 0;
  std::int64_t requeue_ticks = 0;

  double request_ticks() const {
    return pointwise.total_ticks() + phase1.total_ticks() + phase2.total_ticks();
  }
  std::uint64_t requests() const {
    return pointwise.calls + phase1.calls + phase2.calls;
  }
  void add(const StrategyCounters& o) {
    pointwise.add(o.pointwise);
    phase1.add(o.phase1);
    phase2.add(o.phase2);
    phase1_tasks += o.phase1_tasks;
    empty += o.empty;
    requeues += o.requeues;
    requeue_ticks += o.requeue_ticks;
  }
};

/// Times the strategy's paper contract and nothing else: it overrides
/// the pure virtuals, on_request, reset, requeue, current_phase and
/// knowledge_fraction, and leaves the lane hooks at their defaults.
/// Counters stay in the object, next to the inner pointer, so an
/// untimed request costs one extra dispatch and a few adds.
class TimedStrategy final : public Strategy {
 public:
  TimedStrategy(std::unique_ptr<Strategy> inner, const TickClock& clock)
      : inner_(std::move(inner)),
        clock_(clock),
        phased_(inner_->current_phase() != 0) {}

  std::string name() const override { return inner_->name(); }
  std::uint64_t total_tasks() const override { return inner_->total_tasks(); }
  std::uint64_t unassigned_tasks() const override {
    return inner_->unassigned_tasks();
  }
  std::uint32_t workers() const override { return inner_->workers(); }

  using Strategy::on_request;
  bool on_request(std::uint32_t worker, Assignment& out) override {
    // A strategy without phase structure stays at phase 0, so it is
    // asked once, at construction.
    const int phase = phased_ ? inner_->current_phase() : 0;
    auto call = [&] { return inner_->on_request(worker, out); };
    if (phase == 1) {
      last_phase_ = 1;
      const bool granted = c_.phase1.measure(true, clock_, call);
      if (granted) {
        // Only a data-aware request can come back without tasks: random
        // service always grants one task or retires the worker.
        const std::uint64_t tasks = out.task_count();
        c_.phase1_tasks += tasks;
        c_.empty += tasks == 0 ? 1 : 0;
      }
      return granted;
    }
    CallClass& cls = phase == 0 ? c_.pointwise : c_.phase2;
    const bool first = phase != last_phase_;
    last_phase_ = phase;
    return cls.measure(first, clock_, call);
  }

  bool reset(std::uint64_t seed) override {
    last_phase_ = -1;
    return inner_->reset(seed);
  }

  bool requeue(const std::vector<TaskId>& tasks) override {
    const std::int64_t t0 = tick();
    const bool ok = inner_->requeue(tasks);
    c_.requeue_ticks += clock_.since(t0);
    ++c_.requeues;
    return ok;
  }

  double knowledge_fraction(std::uint32_t worker) const override {
    return inner_->knowledge_fraction(worker);
  }
  int current_phase() const override { return inner_->current_phase(); }

  /// Adds the counters gathered so far to `into` and zeroes them.
  void drain(StrategyCounters& into) {
    into.add(c_);
    c_ = StrategyCounters{};
  }

 private:
  std::unique_ptr<Strategy> inner_;
  const TickClock& clock_;
  const bool phased_;
  int last_phase_ = -1;  // phase of the previous request this rep
  StrategyCounters c_;
};

struct PolicyCounters {
  CallClass select;
  std::uint64_t ready = 0;  // summed ready-set size at each select
};

class TimedPolicy final : public DagPolicy {
 public:
  TimedPolicy(DagPolicy& inner, const TickClock& clock)
      : inner_(inner), clock_(clock) {}

  std::string name() const override { return inner_.name(); }
  DagTaskId select(const std::vector<DagTaskId>& ready,
                   const DagPolicyContext& context) override {
    c_.ready += ready.size();
    return c_.select.measure(c_.select.calls == 0, clock_,
                             [&] { return inner_.select(ready, context); });
  }

  const PolicyCounters& counters() const noexcept { return c_; }

 private:
  DagPolicy& inner_;
  const TickClock& clock_;
  PolicyCounters c_;
};

class SpanLog {
 public:
  std::uint32_t open(const char* name, std::uint32_t parent,
                     const std::string& entry, int rep) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{id, parent, name, entry, rep, now_s() - origin_, 0.0});
    return id;
  }
  /// Ends span `id` and returns its duration in seconds.
  double close(std::uint32_t id) {
    Span& span = spans_[id - 1];
    span.dur_s = now_s() - origin_ - span.start_s;
    return span.dur_s;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  double origin_ = now_s();
  std::vector<Span> spans_;
};

/// What a traced spec rep and its untraced control must agree on.
struct RepValues {
  std::uint64_t blocks = 0;
  double normalized = 0.0;
  double analysis_ratio = 0.0;
  friend bool operator==(const RepValues&, const RepValues&) = default;
};

/// The same for a DAG rep.
struct DagValues {
  std::uint64_t transfers = 0;
  double makespan = 0.0;
  std::vector<DagTaskId> completion_order;
  friend bool operator==(const DagValues&, const DagValues&) = default;
};

/// One side of a pair. Only the control side's outputs are checked;
/// the traced side must reproduce them exactly.
template <typename Values>
struct Run {
  Values values;
  double seconds = 0.0;
  std::vector<std::string> errors;
};

constexpr int kOuter = 0, kMatmul = 1;  // [kernel] index
constexpr int kFlat = 0, kTimed = 1;    // [engine] index

struct Totals {
  StrategyCounters strategy[2][2];  // [kernel][engine]
  double build_s[2] = {}, reset_s[2] = {};
  std::uint64_t builds[2] = {}, resets[2] = {};
  double engine_s[2] = {};
  std::uint64_t engine_tasks[2] = {};
  double analysis_s = 0.0;
  std::uint64_t spec_reps = 0;
  std::uint64_t requeued = 0;
  std::map<std::string, PolicyCounters> policies;
  double dag_engine_s = 0.0;
  std::uint64_t dag_tasks = 0;
  double dag_traced_s = 0.0;  // traced DAG rep spans
  double traced_s = 0.0;   // summed traced rep spans
  double covered_s = 0.0;  // of which inside a timed layer
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median of `pairs` (value, weight) by weight.
double weighted_median(std::vector<std::pair<double, double>> pairs) {
  if (pairs.empty()) return 0.0;
  std::sort(pairs.begin(), pairs.end());
  double total = 0.0;
  for (const auto& p : pairs) total += p.second;
  double seen = 0.0;
  for (const auto& p : pairs) {
    seen += p.second;
    if (seen >= 0.5 * total) return p.first;
  }
  return pairs.back().first;
}

class Tracer {
 public:
  TracedPass run(const Loaded& loaded);

 private:
  Run<RepValues> traced_rep(const ExperimentConfig& config, std::uint32_t rep,
                            std::unique_ptr<TimedStrategy>& strategy,
                            std::uint32_t entry_span, const std::string& key);
  Run<DagValues> traced_dag_rep(const Loaded& loaded, const std::string& policy,
                                std::uint32_t rep, std::uint32_t entry_span,
                                const std::string& key);
  std::vector<Metric> metrics() const;

  /// Runs rep `r` untraced (`control` returns its values and failed
  /// output checks) and traced, alternating which side goes first so
  /// neither always finds the caches warm. Records the pair's overhead
  /// and one checked entry: the control's checks, plus whether the
  /// traced side reproduced its results.
  template <typename Control, typename Traced>
  void pair(std::uint32_t r, std::uint32_t entry_span, const std::string& key,
            Control&& control, Traced&& traced) {
    auto run_control = [&] {
      const std::uint32_t span =
          log_.open("control", entry_span, key, static_cast<int>(r));
      auto run = control();
      run.seconds = log_.close(span);
      return run;
    };
    std::optional<decltype(run_control())> a;
    if (r % 2 == 0) a = run_control();
    const auto b = traced();
    if (!a) a = run_control();
    overhead_.emplace_back(b.seconds / a->seconds - 1.0, a->seconds);
    EntryCheck check{key + " rep " + std::to_string(r), 0.0, false,
                     std::move(a->errors)};
    if (!(a->values == b.values)) {
      check.errors.push_back("traced result differs from its control");
      ++mismatches_;
    }
    checks_.push_back(std::move(check));
  }

  /// Times fn() as span `name` under `parent`; adds the time to `bucket`
  /// and to the rep's covered time.
  template <typename Fn>
  auto timed(const char* name, std::uint32_t parent, const std::string& key,
             int rep, double& bucket, Fn&& fn) {
    const std::uint32_t id = log_.open(name, parent, key, rep);
    struct Close {
      Tracer& t;
      std::uint32_t id;
      double& bucket;
      ~Close() {
        const double d = t.log_.close(id);
        bucket += d;
        t.rep_covered_ += d;
      }
    } close{*this, id, bucket};
    return fn();
  }

  TickClock clock_;
  Totals t_;
  SpanLog log_;
  double rep_covered_ = 0.0;
  std::vector<std::pair<double, double>> overhead_;  // (traced/control - 1, control s)
  std::vector<EntryCheck> checks_;
  std::size_t mismatches_ = 0;
};

Run<RepValues> Tracer::traced_rep(const ExperimentConfig& config,
                                  std::uint32_t r,
                                  std::unique_ptr<TimedStrategy>& strategy,
                                  std::uint32_t entry_span,
                                  const std::string& key) {
  const int k = config.kernel == Kernel::kOuter ? kOuter : kMatmul;
  const int e = config.timed ? kTimed : kFlat;
  const std::uint64_t seed = rep_seed(config, r);
  const int rep = static_cast<int>(r);
  const std::uint32_t rep_span = log_.open("rep", entry_span, key, rep);
  rep_covered_ = 0.0;
  double platform_s = 0.0;

  const Platform platform = timed("platform", rep_span, key, rep, platform_s, [&] {
    Rng speed_rng(derive_stream(seed, "experiment.speeds"));
    return make_platform(*config.scenario.speeds, config.p, speed_rng);
  });
  const double beta = timed("resolve_beta", rep_span, key, rep, t_.analysis_s,
                            [&] { return resolve_beta(config); });
  bool reused = false;
  if (strategy != nullptr) {
    reused = timed("reset", rep_span, key, rep, t_.reset_s[k],
                   [&] { return strategy->reset(seed); });
    ++t_.resets[k];
  }
  if (!reused) {
    strategy = timed("build", rep_span, key, rep, t_.build_s[k], [&] {
      return std::make_unique<TimedStrategy>(build_strategy(config, seed, beta),
                                             clock_);
    });
    ++t_.builds[k];
  }
  // The engine configs mirror run_single field for field.
  const SimResult sim = timed("engine", rep_span, key, rep, t_.engine_s[e], [&] {
    if (config.timed) {
      TimedSimConfig sim_config;
      sim_config.seed = seed;
      sim_config.comm = config.comm;
      sim_config.lookahead = config.lookahead;
      sim_config.perturbation = config.scenario.perturbation;
      sim_config.faults = config.faults;
      return simulate_timed(*strategy, platform, sim_config);
    }
    SimConfig sim_config;
    sim_config.seed = seed;
    sim_config.perturbation = config.scenario.perturbation;
    sim_config.faults = config.faults;
    return simulate(*strategy, platform, sim_config);
  });
  strategy->drain(t_.strategy[k][e]);
  t_.engine_tasks[e] += sim.total_tasks_done;
  t_.requeued += sim.requeued_tasks;

  RepValues values = timed("analysis", rep_span, key, rep, t_.analysis_s, [&] {
    const auto rs = platform.relative_speeds();
    const double lower = config.kernel == Kernel::kOuter
                             ? outer_lower_bound(config.n, rs)
                             : matmul_lower_bound(config.n, rs);
    const double analysis_beta =
        beta > 0.0 ? beta
                   : (config.kernel == Kernel::kOuter
                          ? beta_homogeneous_outer(config.p, config.n)
                          : beta_homogeneous_matmul(config.p, config.n));
    return RepValues{sim.total_blocks, sim.normalized_volume(lower),
                     analysis_ratio_for(config.kernel, config.n,
                                        platform.speeds(), analysis_beta)};
  });
  ++t_.spec_reps;
  const double seconds = log_.close(rep_span);
  t_.traced_s += seconds;
  t_.covered_s += rep_covered_;
  return {std::move(values), seconds, {}};
}

Run<DagValues> Tracer::traced_dag_rep(const Loaded& loaded,
                                      const std::string& name, std::uint32_t r,
                                      std::uint32_t entry_span,
                                      const std::string& key) {
  const DagPart& dag = *loaded.dag;
  const std::uint64_t seed = dag_rep_seed(dag, r);
  const int rep = static_cast<int>(r);
  const std::uint32_t rep_span = log_.open("rep", entry_span, key, rep);
  rep_covered_ = 0.0;
  double prep_s = 0.0;
  const Platform platform = timed("platform", rep_span, key, rep, prep_s,
                                  [&] { return dag_platform(dag, seed); });
  auto policy = timed("build", rep_span, key, rep, prep_s,
                      [&] { return make_dag_policy(name, seed); });
  TimedPolicy timed_policy(*policy, clock_);
  DagSimResult result = timed("engine", rep_span, key, rep, t_.dag_engine_s, [&] {
    DagSimConfig config;
    config.seed = seed;
    config.faults = dag.faults;
    return simulate_dag(loaded.graph->graph, platform, timed_policy, config);
  });
  PolicyCounters& counters = t_.policies[name];
  counters.select.add(timed_policy.counters().select);
  counters.ready += timed_policy.counters().ready;
  t_.dag_tasks += result.total_tasks_done;
  t_.requeued += result.requeued_tasks;
  const double seconds = log_.close(rep_span);
  t_.traced_s += seconds;
  t_.dag_traced_s += seconds;
  t_.covered_s += rep_covered_;
  return {DagValues{result.total_transfers, result.makespan,
                    std::move(result.completion_order)},
          seconds,
          {}};
}

TracedPass Tracer::run(const Loaded& loaded) {
  for (const CompiledCampaign& campaign : loaded.campaigns) {
    for (const CampaignEntry& entry : campaign.entries) {
      const ExperimentConfig& config = entry.config;
      const std::string key = campaign.name + "/" + entry.label;
      const std::uint32_t entry_span = log_.open("entry", 0, key, -1);
      RepContext control_ctx;
      std::unique_ptr<TimedStrategy> traced;
      for (std::uint32_t r = 0; r < std::min(2u, config.reps); ++r) {
        pair(
            r, entry_span, key,
            [&] {
              const RepOutcome o =
                  run_single(config, rep_seed(config, r), nullptr, &control_ctx);
              return Run<RepValues>{
                  {o.sim.total_blocks, o.normalized, o.analysis_ratio},
                  0.0,
                  check_rep(config, o)};
            },
            [&] { return traced_rep(config, r, traced, entry_span, key); });
      }
      log_.close(entry_span);
    }
  }
  if (loaded.dag) {
    const DagPart& dag = *loaded.dag;
    for (const std::string& name : dag_policy_names()) {
      const std::string key = "dag/" + name;
      const std::uint32_t entry_span = log_.open("entry", 0, key, -1);
      for (std::uint32_t r = 0; r < std::min(2u, dag.reps); ++r) {
        pair(
            r, entry_span, key,
            [&] {
              Platform platform;
              DagSimResult result = run_dag_rep(loaded, name, r, platform);
              std::vector<std::string> errors =
                  check_dag_rep(loaded.graph->graph, platform, result);
              return Run<DagValues>{{result.total_transfers, result.makespan,
                                     std::move(result.completion_order)},
                                    0.0,
                                    std::move(errors)};
            },
            [&] { return traced_dag_rep(loaded, name, r, entry_span, key); });
      }
      log_.close(entry_span);
    }
  }
  TracedPass pass;
  pass.layers = metrics();
  pass.checks = std::move(checks_);
  pass.spans = log_.take();
  return pass;
}

std::vector<Metric> Tracer::metrics() const {
  std::vector<Metric> out;
  const double spt = clock_.seconds_per_tick();
  const double rep_s = t_.traced_s;
  double spec_self_s = 0.0;
  std::uint64_t spec_tasks = 0;
  for (int e : {kFlat, kTimed}) {
    double strategy_ticks = 0.0;
    for (int k : {kOuter, kMatmul}) {
      const StrategyCounters& c = t_.strategy[k][e];
      strategy_ticks += c.request_ticks() + static_cast<double>(c.requeue_ticks);
    }
    const double self_s = t_.engine_s[e] - spt * strategy_ticks;
    spec_self_s += self_s;
    spec_tasks += t_.engine_tasks[e];
    out.push_back({e == kFlat ? "sim.flat.ns_per_task" : "sim.timed.ns_per_task",
                   "ns",
                   1e9 * ratio(self_s, static_cast<double>(t_.engine_tasks[e]))});
  }
  // Whichever engine the workload's specs use: every workload has one.
  out.push_back({"sim.engine_ns_per_task", "ns",
                 1e9 * ratio(spec_self_s, static_cast<double>(spec_tasks))});

  auto mean_ns = [&](const CallClass& c) {
    return 1e9 * spt * ratio(c.total_ticks(), static_cast<double>(c.calls));
  };
  auto share = [&](double ticks) { return ratio(spt * ticks, rep_s); };
  // "outer." and "matmul." split the strategy layer by kernel, as the
  // code is split; "strategy." is both, and is defined on every workload.
  auto add_strategy = [&](const std::string& p, const StrategyCounters& c,
                          double build_s, std::uint64_t builds, double reset_s,
                          std::uint64_t resets) {
    out.push_back({p + "build_ms", "ms", 1e3 * ratio(build_s, static_cast<double>(builds))});
    out.push_back({p + "reset_ms", "ms", 1e3 * ratio(reset_s, static_cast<double>(resets))});
    out.push_back({p + "reset_share", "fraction", ratio(reset_s, rep_s)});
    out.push_back({p + "pointwise.request_ns", "ns", mean_ns(c.pointwise)});
    out.push_back({p + "pointwise.share", "fraction", share(c.pointwise.total_ticks())});
    out.push_back({p + "phase1.request_ns", "ns", mean_ns(c.phase1)});
    out.push_back({p + "phase1.tasks_per_request", "count",
                   ratio(static_cast<double>(c.phase1_tasks),
                         static_cast<double>(c.phase1.calls))});
    out.push_back({p + "phase1.share", "fraction", share(c.phase1.total_ticks())});
    out.push_back({p + "phase2.request_ns", "ns", mean_ns(c.phase2)});
    out.push_back({p + "phase2.share", "fraction", share(c.phase2.total_ticks())});
    out.push_back({p + "empty_request_frac", "fraction",
                   ratio(static_cast<double>(c.empty),
                         static_cast<double>(c.requests()))});
    out.push_back({p + "request_share", "fraction", share(c.request_ticks())});
    out.push_back({p + "requeue_us", "us",
                   1e6 * spt * ratio(static_cast<double>(c.requeue_ticks),
                                     static_cast<double>(c.requeues))});
    out.push_back({p + "requeue_share", "fraction",
                   share(static_cast<double>(c.requeue_ticks))});
  };
  StrategyCounters all;
  for (int k : {kOuter, kMatmul}) {
    StrategyCounters c = t_.strategy[k][kFlat];
    c.add(t_.strategy[k][kTimed]);
    all.add(c);
    add_strategy(k == kOuter ? "outer." : "matmul.", c, t_.build_s[k], t_.builds[k],
                 t_.reset_s[k], t_.resets[k]);
  }
  add_strategy("strategy.", all, t_.build_s[kOuter] + t_.build_s[kMatmul],
               t_.builds[kOuter] + t_.builds[kMatmul],
               t_.reset_s[kOuter] + t_.reset_s[kMatmul],
               t_.resets[kOuter] + t_.resets[kMatmul]);

  PolicyCounters dag;  // summed over policies
  for (const std::string& name : dag_policy_names()) {
    const auto it = t_.policies.find(name);
    const PolicyCounters c = it == t_.policies.end() ? PolicyCounters{} : it->second;
    dag.select.add(c.select);
    dag.ready += c.ready;
    out.push_back({"dag." + name + ".select_ns", "ns", mean_ns(c.select)});
  }
  const double dag_self_s = t_.dag_engine_s - spt * dag.select.total_ticks();
  out.push_back({"dag.mean_ready", "count",
                 ratio(static_cast<double>(dag.ready),
                       static_cast<double>(dag.select.calls))});
  out.push_back({"dag.engine_ns_per_task", "ns",
                 1e9 * ratio(dag_self_s, static_cast<double>(t_.dag_tasks))});
  out.push_back({"dag.share", "fraction", ratio(t_.dag_traced_s, rep_s)});
  out.push_back({"dag.select_share", "fraction", share(dag.select.total_ticks())});

  out.push_back({"sim.engine_share", "fraction", ratio(spec_self_s + dag_self_s, rep_s)});
  out.push_back({"sim.requeued_tasks", "count", static_cast<double>(t_.requeued)});
  out.push_back({"analysis.ms_per_rep", "ms",
                 1e3 * ratio(t_.analysis_s, static_cast<double>(t_.spec_reps))});
  // A time-weighted median over the pairs: one pair slowed by another
  // process on the host moves it no more than any other pair.
  out.push_back({"trace.overhead_frac", "fraction", weighted_median(overhead_)});
  out.push_back({"trace.coverage", "fraction", ratio(t_.covered_s, rep_s)});
  out.push_back({"trace.bit_identical", "flag", mismatches_ == 0 ? 1.0 : 0.0});
  return out;
}

}  // namespace

TracedPass run_traced(const Loaded& loaded) { return Tracer().run(loaded); }

void write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& span : spans) {
    JsonWriter json(out, /*pretty=*/false, /*double_precision=*/17);
    json.begin_object();
    json.field("id", static_cast<std::uint64_t>(span.id));
    json.field("parent", static_cast<std::uint64_t>(span.parent));
    json.field("name", span.name);
    json.field("entry", span.entry);
    json.field("rep", span.rep);
    json.field("start_s", span.start_s);
    json.field("dur_s", span.dur_s);
    json.end_object();
    out << '\n';
  }
}

}  // namespace e2e
