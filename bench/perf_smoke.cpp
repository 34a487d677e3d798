// Machine-readable performance smoke: one JSON (BENCH_PERF.json) with
// the numbers future PRs regress against.
//
// Sections:
//   heap        - raw binary-heap push/pop ns/op (host-speed calibration)
//   engines     - ns/event of the flat, timed and DAG engines
//   request_ns  - master-side ns/request for the paper's eight strategies
//                 (interquartile range under request_ns_iqr)
//   reps_per_sec- single-thread replication throughput on fig05-sized
//                 (outer N/l = 1000) and fig10-sized (matmul N/l = 100)
//                 workloads
//   large_pool  - peak RSS with a 10^9-id task pool resident
//
// The engine, request and replication probes run in kTrials interleaved
// trials, each of which re-samples the heap probe; every key is the
// median of its trials, and every ratio the median of its per-trial
// ratios (IQRs under ratios_vs_heap_iqr).
//
// Every ns metric is also reported as a ratio over the heap baseline so
// CI can compare against bench/baselines/perf_smoke.json without being
// fooled by runner speed. --large additionally runs the full
// N/l = 1000 matrix-multiplication instances (minutes, not for CI).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/json.hpp"
#include "common/task_pool.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "matmul/matmul_factory.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "outer/outer_factory.hpp"
#include "platform/platform.hpp"
#include "sim/engine.hpp"

namespace {

using namespace hetsched;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Interleaved trials behind every engine, request_ns and rep_cost key.
/// Odd, so a median is one trial's sample and inverts exactly.
constexpr int kTrials = 5;

/// Median and interquartile range of a sample, quartiles by the
/// "exclusive" method of Python's statistics.quantiles (the one
/// bench/e2e/compare.py reports).
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto quantile = [&v](double p) {
    const double last = static_cast<double>(v.size() - 1);
    const double pos = std::clamp(p * static_cast<double>(v.size() + 1) - 1.0,
                                  0.0, last);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Raw binary-heap churn, the host-speed unit: ns per push+pop at a
/// fixed depth: the event loop is a binary heap at heart, so this is
/// "one event's worth of machinery" on this host.
/// One trial's sample: 2M ops, re-taken at the start of every trial.
double heap_ns_per_op() {
  using Entry = std::pair<double, std::uint64_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  constexpr int kDepth = 64;
  std::uint64_t seq = 0;
  double t = 0.0;
  for (int i = 0; i < kDepth; ++i) heap.push({t += 0.7, seq++});
  constexpr std::uint64_t kOps = 2'000'000;
  volatile std::uint64_t sink = 0;
  const double start = now_sec();
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const Entry top = heap.top();
    heap.pop();
    heap.push({top.first + 1.3, seq++});
    sink = heap.size();
  }
  (void)sink;
  return (now_sec() - start) * 1e9 / static_cast<double>(kOps);
}

/// One engine run: its timed seconds (set-up excluded) and its events.
struct EngineSample {
  double sec = 0.0;
  std::uint64_t events = 0;
};

/// Engine ns/event: re-run `simulate_once(seed)` on fresh seeds until
/// the probe's budget is spent.
template <typename SimulateOnce>
double engine_ns_per_event(SimulateOnce simulate_once) {
  double elapsed = 0.0;
  std::uint64_t events = 0;
  for (std::uint64_t seed = 1; elapsed < 0.25; ++seed) {
    const EngineSample sample = simulate_once(seed);
    elapsed += sample.sec;
    events += sample.events;
  }
  return elapsed * 1e9 / static_cast<double>(events);
}

const Platform& engine_platform() {
  static const Platform platform({10, 15, 20, 25, 30, 40, 50, 80});
  return platform;
}

/// Free link, DynamicOuter at N/l = 60: ns per task, completions
/// batched.
double flat_engine_ns_per_event() {
  return engine_ns_per_event([](std::uint64_t seed) {
    auto strategy =
        make_outer_strategy("DynamicOuter", OuterConfig{60}, 8, seed);
    const double start = now_sec();
    const SimResult result = simulate(*strategy, engine_platform());
    return EngineSample{now_sec() - start, result.total_tasks_done};
  });
}

/// Comm-timed link (bandwidth 100, lookahead 4) on the same workload:
/// ns per task plus message arrival, the events a task-by-task schedule
/// pops (completions are batched, so the heap sees far fewer).
double timed_engine_ns_per_event() {
  return engine_ns_per_event([](std::uint64_t seed) {
    auto strategy =
        make_outer_strategy("DynamicOuter", OuterConfig{60}, 8, seed);
    const double start = now_sec();
    SimConfig config;
    config.comm = CommModel{};
    config.lookahead = 4;
    const SimResult result = simulate(*strategy, engine_platform(), config);
    const double sec = now_sec() - start;
    std::uint64_t events = result.total_tasks_done;
    for (const auto& w : result.workers) events += w.messages_received;
    return EngineSample{sec, events};
  });
}

/// DAG engine, 16-tile Cholesky under CriticalPathDagPolicy: one event
/// per task.
double dag_engine_ns_per_event() {
  static const CholeskyGraph cholesky = build_cholesky_graph(16);
  return engine_ns_per_event([](std::uint64_t seed) {
    const double start = now_sec();
    CriticalPathDagPolicy policy;
    const DagSimResult result =
        simulate_dag(cholesky.graph, engine_platform(), policy, seed);
    return EngineSample{now_sec() - start, result.total_tasks_done};
  });
}

/// Master-side ns/request: drain a fresh instance to exhaustion through
/// the request path, timing only the drain.
double request_ns(bool outer, const std::string& name) {
  const std::uint32_t workers = 16;
  std::uint64_t requests = 0;
  double elapsed = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t sink = 0;
  while (elapsed < 0.3) {
    std::unique_ptr<Strategy> strategy;
    if (outer) {
      OuterStrategyOptions options;
      options.phase2_fraction = 0.02;
      strategy =
          make_outer_strategy(name, OuterConfig{100}, workers, ++seed, options);
    } else {
      MatmulStrategyOptions options;
      options.phase2_fraction = 0.05;
      strategy =
          make_matmul_strategy(name, MatmulConfig{40}, workers, ++seed, options);
    }
    std::uint32_t next_worker = 0;
    Assignment scratch;  // the engines' steady-state path: one reused buffer
    const double start = now_sec();
    while (strategy->on_request(next_worker, scratch)) {
      // task_count() sums scalars AND run-encoded grants, so the sink
      // observes the full assignment on the run-emitting strategies.
      sink += scratch.task_count();
      ++requests;
      next_worker = (next_worker + 1) % workers;
    }
    elapsed += now_sec() - start;
  }
  if (sink == 0) std::cerr << "";  // keep the accumulator observable
  return elapsed * 1e9 / static_cast<double>(requests);
}

/// Resident cost of a 10^9-id task pool (matmul at N/l = 1000): RSS
/// delta after construction plus a short op mix to touch the layout.
double large_pool_rss_delta_mb() {
  const double before = peak_rss_mb();
  TaskPool pool(1'000'000'000ull);
  Rng rng(1);
  for (int i = 0; i < 1'000'000; ++i) pool.pop_random(rng);
  for (int i = 0; i < 1'000'000; ++i) pool.pop_first();
  volatile std::uint64_t sink = pool.size();
  (void)sink;
  return peak_rss_mb() - before;
}

/// Single-thread replication throughput for one figure-sized workload.
double workload_reps_per_sec(Kernel kernel, const std::string& strategy,
                             std::uint32_t n, std::uint32_t p,
                             std::uint32_t reps) {
  ExperimentConfig config;
  config.kernel = kernel;
  config.strategy = strategy;
  config.n = n;
  config.p = p;
  config.reps = reps;
  config.parallelism = 1;
  config.seed = 42;
  const ExperimentResult result = run_experiment(config);
  return result.reps_per_sec;
}

/// Same fig10-sized workload with the flight recorder attached
/// (wall-clock profiler + progress heartbeats into a sink). The
/// resulting rep-cost ratio is a required key in the CI perf gate, so
/// telemetry cost regressions fail the build like any other slowdown.
struct ProfiledWorkload {
  double reps_per_sec = 0.0;
  ProfileTotals profile;
};

ProfiledWorkload profiled_fig10_workload(std::uint32_t reps) {
  ExperimentConfig config;
  config.kernel = Kernel::kMatmul;
  config.strategy = "DynamicMatrix2Phases";
  config.n = 100;
  config.p = 100;
  config.reps = reps;
  config.parallelism = 1;
  config.seed = 42;
  config.profile = true;
  std::ostringstream sink;
  ProgressReporter reporter(sink, {});
  reporter.expect_reps(config.reps);
  config.progress = &reporter;
  const ExperimentResult result = run_experiment(config);
  return {result.reps_per_sec, result.profile};
}

}  // namespace

int bench_main(const CliArgs& args) {
  const std::string out_path = args.get("out", "BENCH_PERF.json");
  const bool large = args.get_bool("large", false);
  args.reject_unread();

  // Probe by probe, trial by trial: a slow stretch of the host lands in
  // one trial of every key instead of in all trials of one, and each
  // ratio divides by the heap probe of its own trial.
  struct Probe {
    std::string name;       // engine, request_ns or reps_per_sec key
    std::string ratio_key;  // ratios_vs_heap key
    std::function<double()> measure;  // ns per event, request or rep
  };
  std::vector<Probe> probes = {
      {"flat_engine_ns_per_event", "flat_engine_ns_per_event",
       flat_engine_ns_per_event},
      {"timed_engine_ns_per_event", "timed_engine_ns_per_event",
       timed_engine_ns_per_event},
      {"dag_engine_ns_per_event", "dag_engine_ns_per_event",
       dag_engine_ns_per_event}};
  const std::size_t engine_count = probes.size();
  for (const char* name : {"RandomOuter", "SortedOuter", "DynamicOuter",
                           "DynamicOuter2Phases", "RandomMatrix",
                           "SortedMatrix", "DynamicMatrix",
                           "DynamicMatrix2Phases"}) {
    const bool outer = std::string(name).find("Outer") != std::string::npos;
    probes.push_back({name, std::string("request.") + name,
                      [outer, name] { return request_ns(outer, name); }});
  }
  const std::size_t request_end = probes.size();
  // fig05-sized (outer N/l = 1000) and fig10-sized (matmul N/l = 100)
  // single-thread replication cost; their ratios are heap ops per rep.
  const auto add_rep_probe = [&probes](const char* label, Kernel kernel,
                                       const char* strategy, std::uint32_t n) {
    const std::string name = std::string(label) + "." + strategy;
    probes.push_back({name, "rep_cost." + name, [kernel, strategy, n] {
                        return 1e9 / workload_reps_per_sec(kernel, strategy, n,
                                                           100, 2);
                      }});
  };
  add_rep_probe("fig05_outer_n1000", Kernel::kOuter, "RandomOuter", 1000);
  add_rep_probe("fig05_outer_n1000", Kernel::kOuter, "DynamicOuter2Phases",
                1000);
  add_rep_probe("fig10_mm_n100", Kernel::kMatmul, "RandomMatrix", 100);
  add_rep_probe("fig10_mm_n100", Kernel::kMatmul, "DynamicMatrix2Phases", 100);
  const std::size_t rep_end = probes.size();
  // The same fig10 workload with the flight recorder attached; the JSON
  // `profile` section keeps the last trial's per-site totals.
  ProfileTotals profile;
  probes.push_back({"fig10_mm_n100.DynamicMatrix2Phases (profiled)",
                    "profile.rep_cost.fig10_mm_n100.DynamicMatrix2Phases",
                    [&profile] {
                      const ProfiledWorkload profiled =
                          profiled_fig10_workload(2);
                      profile = profiled.profile;
                      return 1e9 / profiled.reps_per_sec;
                    }});
  std::vector<double> heap_trials;
  std::vector<std::vector<double>> ns_trials(probes.size());
  std::vector<std::vector<double>> ratio_trials(probes.size());
  for (int t = 0; t < kTrials; ++t) {
    const double heap_t = heap_ns_per_op();
    heap_trials.push_back(heap_t);
    for (std::size_t p = 0; p < probes.size(); ++p) {
      const double ns = probes[p].measure();
      ns_trials[p].push_back(ns);
      ratio_trials[p].push_back(ns / heap_t);
    }
  }
  const Spread heap_spread = spread(heap_trials);
  const double heap = heap_spread.median;
  std::cerr << "# heap baseline: " << heap << " ns/op (IQR "
            << heap_spread.iqr << ")\n";
  std::vector<Spread> ns;
  std::vector<Spread> ratio;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    ns.push_back(spread(ns_trials[p]));
    ratio.push_back(spread(ratio_trials[p]));
    std::cerr << "# " << probes[p].ratio_key << ": " << ns[p].median
              << " ns (IQR " << ns[p].iqr << "), ratio " << ratio[p].median
              << " (IQR " << ratio[p].iqr << ")\n";
  }

  const double pool_rss = large_pool_rss_delta_mb();
  std::cerr << "# large pool (10^9 ids) rss delta: " << pool_rss << " MB\n";

  // --large: the full N/l = 1000 matrix-multiplication instances (10^9
  // tasks each) — the run the compact pool exists for. Minutes of wall
  // time; excluded from CI, results land in EXPERIMENTS.md.
  std::vector<std::pair<std::string, double>> large_norm;
  std::vector<std::pair<std::string, double>> large_wall;
  if (large) {
    const auto run_large = [&](const char* name) {
      ExperimentConfig config;
      config.kernel = Kernel::kMatmul;
      config.strategy = name;
      config.n = 1000;
      config.p = 100;
      config.reps = 1;
      config.parallelism = 1;
      config.seed = 42;
      const double start = now_sec();
      const ExperimentResult result = run_experiment(config);
      const double wall = now_sec() - start;
      large_norm.emplace_back(name, result.normalized.mean);
      large_wall.emplace_back(name, wall);
      std::cerr << "# large mm_n1000 " << name
                << ": normalized=" << result.normalized.mean
                << " wall=" << wall << " s, peak rss " << peak_rss_mb()
                << " MB\n";
    };
    run_large("RandomMatrix");
    run_large("DynamicMatrix2Phases");
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "hetsched-perf-smoke/1");
  json.field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("trials", static_cast<std::uint64_t>(kTrials));
  json.field("heap_ns_per_op", heap);
  json.field("heap_ns_per_op_iqr", heap_spread.iqr);
  for (std::size_t p = 0; p < engine_count; ++p) {
    json.field(probes[p].name, ns[p].median);
  }
  json.key("request_ns");
  json.begin_object();
  for (std::size_t p = engine_count; p < request_end; ++p) {
    json.field(probes[p].name, ns[p].median);
  }
  json.end_object();
  json.key("request_ns_iqr");
  json.begin_object();
  for (std::size_t p = engine_count; p < request_end; ++p) {
    json.field(probes[p].name, ns[p].iqr);
  }
  json.end_object();
  // The median of an odd number of per-trial ns per rep, inverted.
  json.key("reps_per_sec");
  json.begin_object();
  for (std::size_t p = request_end; p < rep_end; ++p) {
    json.field(probes[p].name, 1e9 / ns[p].median);
  }
  json.end_object();
  // Host-independent ratios for the CI gate: ns metrics over the heap
  // baseline (each the median of its per-trial ratios); throughput as
  // heap-ops-per-rep (lower = faster). The telemetry-on rep cost is
  // gated like the plain fig10 one, so profiler + progress can never
  // silently grow past the noise floor (the structural < 1% gate lives
  // in tests/obs/profiler_test).
  json.key("ratios_vs_heap");
  json.begin_object();
  for (std::size_t p = 0; p < probes.size(); ++p) {
    json.field(probes[p].ratio_key, ratio[p].median);
  }
  json.end_object();
  json.key("ratios_vs_heap_iqr");
  json.begin_object();
  for (std::size_t p = 0; p < probes.size(); ++p) {
    json.field(probes[p].ratio_key, ratio[p].iqr);
  }
  json.end_object();
  // Per-site wall totals of the last profiled run, for eyeballing where a
  // telemetry regression landed (same site taxonomy as the CLI).
  json.key("profile");
  write_profile_json(json, profile);
  json.key("large_pool");
  json.begin_object();
  json.field("capacity_ids", static_cast<std::uint64_t>(1'000'000'000ull));
  json.field("rss_delta_mb", pool_rss);
  json.end_object();
  if (!large_norm.empty()) {
    json.key("large_mm_n1000");
    json.begin_object();
    for (std::size_t i = 0; i < large_norm.size(); ++i) {
      json.key(large_norm[i].first);
      json.begin_object();
      json.field("normalized_volume", large_norm[i].second);
      json.field("wall_sec", large_wall[i].second);
      json.end_object();
    }
    json.end_object();
  }
  json.field("peak_rss_mb", peak_rss_mb());
  json.end_object();
  out << "\n";
  std::cerr << "# wrote " << out_path << "\n";
  return 0;
}
