// End-to-end benchmark program: the wall time, set-up time, memory and
// communication volume of reproducing a paper figure from its `.hspec`,
// plus a separate traced pass that splits the time into layers.
//
//   hetsched_bench --workload=fig05|fig10|mm_n1000|timed_dag|all
//                  [--seed=S] [--seconds=T]
//                  [--trace [--trace-out=spans.jsonl]]
//                  [--smoke] [--write-golden]
//
// Each workload runs through the same public path as `hetsched_cli
// campaign --spec=...` (parse -> resolve -> validate -> compile ->
// Campaign::run(0)) on a parallelism budget of min(2, nproc - 1) threads
// (at least 1), and prints one JSON report line on stdout.
// `--workload=all` runs each workload in a fresh process of its own, so
// peak RSS is per workload.
//
// A run times at least the workload's K trials and keeps going until
// --seconds have passed; wall_s is their median, and wall_norm_s the
// same rescaled by the host probe's reading over the trials
// (host_probe.hpp). --seed=S
// overrides every spec's seed and the DAG seed; without it the specs'
// own seeds apply and the results are checked against
// golden/<workload>.json as well. --trace runs, instead of the trials, a
// single-threaded traced pass over reps 0 and 1 of every entry that
// gives the per-layer metrics (see traced.hpp). --smoke runs every
// workload at small sizes, one trial and the traced pass each, in a few
// seconds. The exit status is non-zero if any output check failed.
#include <spawn.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "core/campaign.hpp"
#include "dag/dag_engine.hpp"
#include "host_probe.hpp"
#include "runtime/thread_pool.hpp"
#include "spec/spec.hpp"
#include "traced.hpp"
#include "workload.hpp"

extern char** environ;

namespace {

using namespace hetsched;
using namespace e2e;

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;  // keep running trials until this long
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
  bool write_golden = false;
};

std::uint32_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// One untraced trial of a workload, timed end to end.
struct Trial {
  double wall_s = 0.0;
  double rep_work_s = 0.0;  // summed rep-loop wall time of every entry
  std::vector<EntryCheck> entries;
};

Trial run_trial(const Loaded& loaded) {
  std::vector<Campaign> campaigns;
  for (const CompiledCampaign& compiled : loaded.campaigns) {
    Campaign& campaign = campaigns.emplace_back(compiled.name);
    for (const CampaignEntry& entry : compiled.entries) {
      campaign.add(entry.label, entry.config);
    }
  }
  struct DagRun {
    std::string policy;
    std::uint32_t rep = 0;
    Platform platform;
    DagSimResult result;
    double wall_s = 0.0;
    std::string error;
  };
  std::vector<DagRun> dag_runs;
  if (loaded.dag) {
    for (const std::string& policy : dag_policy_names()) {
      for (std::uint32_t r = 0; r < loaded.dag->reps; ++r) {
        dag_runs.push_back(DagRun{policy, r, {}, {}, 0.0, {}});
      }
    }
  }

  Trial trial;
  std::vector<std::vector<CampaignOutcome>> outcomes(campaigns.size());
  std::vector<std::string> errors(campaigns.size());
  const double t0 = now_s();
  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    try {
      outcomes[c] = campaigns[c].run(0);
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  }
  if (!dag_runs.empty()) {
    // DAG reps are independent: spread them over the same budget the
    // campaigns draw from.
    ParallelLease lease(static_cast<std::uint32_t>(dag_runs.size()));
    parallel_for_dynamic(std::max(1u, lease.granted()), dag_runs.size(),
                         [&](std::uint64_t i) {
      DagRun& run = dag_runs[i];
      const double start = now_s();
      try {
        run.result = run_dag_rep(loaded, run.policy, run.rep, run.platform);
      } catch (const std::exception& e) {
        run.error = e.what();
      }
      run.wall_s = now_s() - start;
    });
  }
  trial.wall_s = now_s() - t0;

  for (std::size_t c = 0; c < campaigns.size(); ++c) {
    const CompiledCampaign& compiled = loaded.campaigns[c];
    if (!errors[c].empty()) {
      for (const CampaignEntry& entry : compiled.entries) {
        trial.entries.push_back(EntryCheck{compiled.name + "/" + entry.label,
                                           0.0, true, {errors[c]}});
      }
      continue;
    }
    for (const CampaignOutcome& outcome : outcomes[c]) {
      trial.entries.push_back(check_entry(compiled.name, outcome));
      trial.rep_work_s += outcome.result.wall_time_sec;
    }
  }
  // One checked entry per policy: its reps are adjacent in dag_runs.
  const std::uint32_t reps = loaded.dag ? loaded.dag->reps : 0;
  for (std::size_t first = 0; first < dag_runs.size(); first += reps) {
    EntryCheck check{"dag/" + dag_runs[first].policy, 0.0, false, {}};
    for (std::size_t i = first; i < first + reps; ++i) {
      const DagRun& run = dag_runs[i];
      trial.rep_work_s += run.wall_s;
      const std::string rep = "rep " + std::to_string(run.rep) + ": ";
      if (!run.error.empty()) {
        check.errors.push_back(rep + run.error);
        continue;
      }
      check.value += static_cast<double>(run.result.total_transfers);
      for (const std::string& e :
           check_dag_rep(loaded.graph->graph, run.platform, run.result)) {
        check.errors.push_back(rep + e);
      }
    }
    check.value /= static_cast<double>(reps);
    trial.entries.push_back(std::move(check));
  }
  return trial;
}

void write_metric(JsonWriter& json, const std::string& name, double value,
                  const std::string& unit,
                  const std::vector<double>* samples = nullptr) {
  json.key(name);
  json.begin_object();
  json.field("value", value);
  json.field("unit", unit);
  if (samples != nullptr) {
    json.key("samples");
    json.begin_array();
    for (const double s : *samples) json.value(s);
    json.end_array();
  }
  json.end_object();
}

struct SetupTimes {
  double total_s = 0.0;
  double spec_s = 0.0;
  double graph_s = 0.0;
};

/// Times one set-up: the spec pipeline, one strategy per grid entry (the
/// first rep's) and the DAG graph. It runs in a forked child of the
/// still single-threaded, untouched process, so every set-up starts
/// from the heap a fresh process has. Most of a set-up is first-touch
/// page faults in the strategies' pools; memory an earlier set-up freed
/// would make the next one 3-5x cheaper, depending on what glibc kept.
SetupTimes timed_setup(const Workload& workload, const LoadOptions& load) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("set-up: pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("set-up: fork failed");
  if (pid == 0) {
    close(fds[0]);
    SetupTimes t;
    try {
      const double t0 = now_s();
      const Loaded loaded = load_workload(workload, load);
      for (const CompiledCampaign& campaign : loaded.campaigns) {
        for (const CampaignEntry& entry : campaign.entries) {
          build_strategy(entry.config, rep_seed(entry.config, 0),
                         resolve_beta(entry.config));
        }
      }
      t = {now_s() - t0, loaded.spec_s, loaded.graph_s};
    } catch (const std::exception& e) {
      std::cerr << "hetsched_bench: set-up: " << e.what() << '\n';
      _exit(1);
    }
    const bool sent = write(fds[1], &t, sizeof t) == static_cast<ssize_t>(sizeof t);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  SetupTimes t;
  const ssize_t got = read(fds[0], &t, sizeof t);
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!exited || got != static_cast<ssize_t>(sizeof t)) {
    throw std::runtime_error("set-up run failed");
  }
  return t;
}

/// Checked entries of one workload run, summed over trials and pairs.
struct CheckLog {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void add(const std::vector<EntryCheck>& entries) {
    for (const EntryCheck& entry : entries) {
      ++attempted;
      if (entry.errors.empty()) continue;
      ++failed;
      for (const std::string& e : entry.errors) {
        if (failures.size() < 20) failures.push_back(entry.key + ": " + e);
      }
    }
  }
};

int run_workload(const Workload& workload, const Options& o) {
  const std::uint32_t cpus = cpu_count();
  // At most 2, and one CPU left for the host probe where there is one.
  set_parallel_budget_capacity(std::clamp(cpus - 1, 1u, 2u));
  const std::uint32_t threads = parallel_budget_capacity();
  const LoadOptions load{HETSCHED_E2E_DIR, o.seed, o.smoke};
  // End-to-end numbers come from untraced runs only; a --trace run does
  // the traced pass alone (--smoke does one trial and the traced pass).
  const bool run_trials = !o.trace || o.smoke;
  const std::uint32_t min_trials = o.smoke ? 1 : workload.min_trials;
  const double seconds = o.smoke ? 0.0 : o.seconds;
  const std::uint32_t setup_reps = o.smoke ? 1 : 5;
  const bool use_golden = !o.seed && !o.smoke && !o.write_golden;
  const std::string golden_path =
      std::string(HETSCHED_E2E_DIR) + "/golden/" + workload.name + ".json";

  // Set-up first: the process is still single-threaded, as fork needs.
  std::vector<double> setup_s, spec_s, graph_s;
  for (std::uint32_t i = 0; i < setup_reps; ++i) {
    const SetupTimes t = timed_setup(workload, load);
    setup_s.push_back(t.total_s);
    spec_s.push_back(t.spec_s);
    graph_s.push_back(t.graph_s);
  }

  std::vector<double> wall_s, efficiency;
  std::vector<EntryCheck> reference;  // trial 1
  CheckLog checks;
  GoldenSummary golden;
  // The probe samples the host while the trials run (host_probe.hpp).
  std::optional<HostProbe> probe;
  if (run_trials) probe.emplace();
  const double start = now_s();
  while (run_trials && (wall_s.size() < min_trials || now_s() - start < seconds)) {
    // Fresh entries every trial: some speed models carry draw state.
    const Loaded loaded = load_workload(workload, load);
    Trial trial = run_trial(loaded);
    if (reference.empty()) {
      if (o.write_golden) write_golden(golden_path, workload.name, trial.entries);
      if (use_golden) golden = check_golden(golden_path, trial.entries);
      reference = trial.entries;
    } else {
      for (std::size_t i = 0; i < trial.entries.size(); ++i) {
        if (trial.entries[i].value != reference[i].value) {
          trial.entries[i].errors.push_back("result differs from trial 1");
        }
      }
    }
    checks.add(trial.entries);
    wall_s.push_back(trial.wall_s);
    efficiency.push_back(trial.rep_work_s / (threads * trial.wall_s));
  }
  const double ref_step_ns = probe ? probe->stop() : 0.0;
  const double wall_norm_s =
      probe ? median(wall_s) * kReferenceStepNs / ref_step_ns : 0.0;

  TracedPass pass;
  if (o.trace) {
    pass = run_traced(load_workload(workload, load));
    checks.add(pass.checks);
    pass.layers.push_back({"spec.load_ms", "ms", 1e3 * median(spec_s)});
    pass.layers.push_back({"dag.graph_build_ms", "ms", 1e3 * median(graph_s)});
    if (!o.trace_out.empty()) write_spans_jsonl(o.trace_out, pass.spans);
  }

  // The paper's metric: geometric mean over the outer/matmul entries of
  // the mean normalized volume.
  double log_sum = 0.0;
  std::size_t volumes = 0;
  for (const EntryCheck& entry : reference) {
    if (!entry.is_volume || !(entry.value > 0.0)) continue;
    log_sum += std::log(entry.value);
    ++volumes;
  }
  const double norm_volume = volumes == 0 ? 0.0 : std::exp(log_sum / volumes);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double failed_frac =
      checks.attempted == 0 ? 1.0
                            : static_cast<double>(checks.failed) / checks.attempted;

  {
    JsonWriter json(std::cout, /*pretty=*/false, /*double_precision=*/17);
    json.begin_object();
    json.field("workload", workload.name);
    json.field("smoke", o.smoke);
    json.key("seed");
    if (o.seed) {
      json.value(*o.seed);
    } else {
      json.value("spec");
    }
    json.key("host");
    json.begin_object();
    json.field("nproc", static_cast<std::uint64_t>(cpus));
    json.field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.field("threads", static_cast<std::uint64_t>(threads));
    if (run_trials) json.field("ref_step_ns", ref_step_ns);
    json.end_object();
    json.field("trials", static_cast<std::uint64_t>(wall_s.size()));
    json.key("metrics");
    json.begin_object();
    if (run_trials) {
      write_metric(json, "wall_s", median(wall_s), "s", &wall_s);
      write_metric(json, "wall_norm_s", wall_norm_s, "s");
      write_metric(json, "norm_volume", norm_volume, "ratio");
    }
    write_metric(json, "setup_s", median(setup_s), "s", &setup_s);
    write_metric(json, "peak_rss_mb", peak_rss_mb, "MB");
    write_metric(json, "failed_frac", failed_frac, "fraction");
    json.end_object();
    if (run_trials) {
      // Summed rep-loop time of every entry / (threads x wall time): how
      // well the campaign keeps the budget's threads busy.
      write_metric(json, "parallel_efficiency", median(efficiency), "fraction",
                   &efficiency);
    }
    json.key("checks");
    json.begin_object();
    json.field("attempted", checks.attempted);
    json.field("failed", checks.failed);
    json.key("failures");
    json.begin_array();
    for (const std::string& f : checks.failures) json.value(f);
    json.end_array();
    json.key("golden");
    json.begin_object();
    json.field("checked", use_golden && run_trials);
    json.field("entries", static_cast<std::uint64_t>(golden.entries));
    json.field("within_1pct", static_cast<std::uint64_t>(golden.within));
    json.field("exact", static_cast<std::uint64_t>(golden.exact));
    json.end_object();
    json.end_object();
    json.key("entries");
    json.begin_object();
    for (const EntryCheck& entry : reference) json.field(entry.key, entry.value);
    json.end_object();
    if (o.trace) {
      json.key("layers");
      json.begin_object();
      for (const Metric& m : pass.layers) write_metric(json, m.name, m.value, m.unit);
      json.end_object();
    }
    json.end_object();
  }
  std::cout << std::endl;

  std::cerr << workload.name << ":";
  if (run_trials) {
    std::cerr << " wall_s " << median(wall_s) << " (median of " << wall_s.size()
              << "), wall_norm_s " << wall_norm_s << ", norm_volume " << norm_volume
              << ",";
  }
  std::cerr << " setup_s " << median(setup_s) << ", peak_rss_mb " << peak_rss_mb
            << ", failed " << checks.failed << "/" << checks.attempted << '\n';
  for (const std::string& f : checks.failures) std::cerr << "  FAILED " << f << '\n';
  return checks.failed == 0 ? 0 : 1;
}

/// Re-executes this binary once per workload, so each gets a fresh
/// process (and its own peak RSS). Returns the worst exit status.
int run_all(int argc, char** argv, const Options& o) {
  int worst = 0;
  for (const Workload& workload : workloads()) {
    std::vector<std::string> args{"/proc/self/exe"};
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--workload", 0) == 0 || arg.rfind("--trace-out", 0) == 0) {
        continue;
      }
      args.push_back(arg);
    }
    args.push_back("--workload=" + workload.name);
    // One spans file per workload: FILE.fig05, FILE.fig10, ...
    if (!o.trace_out.empty()) {
      args.push_back("--trace-out=" + o.trace_out + "." + workload.name);
    }
    std::vector<char*> child_argv;
    for (std::string& a : args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    std::cout.flush();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, child_argv.data(),
                    environ) != 0) {
      std::cerr << "hetsched_bench: cannot start a child process\n";
      return 2;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) return 2;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    worst = std::max(worst, code);
  }
  return worst;
}

std::string workload_names() {
  std::string names;
  for (const Workload& w : workloads()) names += w.name + "|";
  return names + "all";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    Options o;
    o.smoke = args.get_bool("smoke", false);
    o.workload = args.get("workload", o.smoke ? "all" : "");
    if (args.has("seed")) {
      std::uint64_t seed = 0;
      if (!parse_u64_strict(args.get("seed", ""), seed)) {
        std::cerr << "hetsched_bench: --seed must be an unsigned integer\n";
        return 2;
      }
      o.seed = seed;
    }
    o.seconds = args.get_double("seconds", 0.0);
    if (!(o.seconds >= 0.0 && o.seconds <= 3600.0)) {
      std::cerr << "hetsched_bench: --seconds must be in [0, 3600]\n";
      return 2;
    }
    o.trace = args.get_bool("trace", false) || o.smoke;
    o.trace_out = args.get("trace-out", "");
    o.write_golden = args.get_bool("write-golden", false);
    if (o.write_golden && (o.seed || o.smoke)) {
      std::cerr << "hetsched_bench: goldens are written at the spec seeds, "
                   "without --seed or --smoke\n";
      return 2;
    }

    if (o.workload == "all") return run_all(argc, argv, o);
    const Workload* workload = find_workload(o.workload);
    if (workload == nullptr) {
      std::cerr << "usage: hetsched_bench --workload=" << workload_names()
                << " [--seed=S] [--seconds=T] [--trace [--trace-out=FILE]]"
                   " [--smoke] [--write-golden]\n";
      return 2;
    }
    return run_workload(*workload, o);
  } catch (const std::exception& e) {
    std::cerr << "hetsched_bench: " << e.what() << '\n';
    return 2;
  }
}
