// hetsched command-line driver: one binary exposing the library's main
// entry points for interactive use and scripting.
//
//   hetsched_cli run   --kernel=outer --strategy=DynamicOuter2Phases
//                      [--n=100] [--p=20] [--scenario=default]
//                      [--reps=10] [--seed=42] [--beta=4.2] [--json]
//   hetsched_cli tune  --kernel=matmul [--p=100] [--n=40]
//   hetsched_cli sweep --kernel=outer [--n=100] [--p=10,50,100]
//                      [--strategies=RandomOuter,DynamicOuter] [--json]
//   hetsched_cli partition --speeds=10,40,25,25
//   hetsched_cli dag   --factorization=cholesky [--tiles=16] [--p=8]
//   hetsched_cli analyze --trace=events.jsonl [--json]
//   hetsched_cli validate --spec=scenario.hspec [--canonical]
//   hetsched_cli help
//
// run/sweep/campaign/validate all compile their configuration through
// the spec layer (src/spec): flags become a partial ScenarioSpec
// overlaid on an optional --spec=FILE (.hspec), then one shared
// resolve -> validate -> compile pipeline produces the experiment
// configs. Flag-only invocations compile to exactly the configs the
// commands used to build by hand (pinned by
// tests/spec/spec_cli_identity_test.cpp).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/matmul_analysis.hpp"
#include "analysis/outer_analysis.hpp"
#include "common/cli.hpp"
#include "core/campaign.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/figure.hpp"
#include "core/report.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "obs/analyze.hpp"
#include "obs/instrument.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "platform/platform.hpp"
#include "sim/trace_export.hpp"
#include "spec/compile.hpp"
#include "spec/overlay.hpp"
#include "spec/parse.hpp"
#include "static_part/column_partition.hpp"

namespace {

using namespace hetsched;

int usage() {
  std::cout <<
      "hetsched_cli <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  run        run one experiment and report normalized volume\n"
      "             --kernel=outer|matmul --strategy=<name> [--n= --p=]\n"
      "             [--scenario=default|hom|unif.1|...|dyn.20] [--reps=]\n"
      "             [--seed=] [--beta=] [--json] [--details]\n"
      "             [--spec=FILE.hspec]  load a scenario spec; flags\n"
      "                                  override its fields\n"
      "             engine selection and fault injection:\n"
      "             [--timed]            comm-timed engine (serial uplink)\n"
      "             [--bandwidth=B] [--latency=L] [--lookahead=K]\n"
      "                                  comm knobs, used with --timed\n"
      "             [--faults=t:w:f,...] scripted faults: at time t worker w\n"
      "                                  scales speed by f (f=0 -> crash)\n"
      "             observability (re-runs repetition 0 instrumented):\n"
      "             [--trace-out=FILE]   chrome-tracing JSON with per-worker\n"
      "                                  Gantt rows, phase-switch markers and\n"
      "                                  sampled counters; open the file\n"
      "                                  in chrome://tracing (\"Load\") or at\n"
      "                                  https://ui.perfetto.dev (\"Open trace\n"
      "                                  file\")\n"
      "             [--events-out=FILE]  self-describing hetsched-trace/1\n"
      "                                  JSONL (meta + run totals + worker\n"
      "                                  stats + every event + samples) for\n"
      "                                  `analyze`\n"
      "             [--sample-interval=DT] sampling cadence in simulated time\n"
      "                                  units (default: ~192 samples/run)\n"
      "             telemetry (wall clock only; never perturbs results):\n"
      "             [--profile]          wall-clock self-profiler; per-site\n"
      "                                  totals in the report/JSON output\n"
      "             [--progress]         live heartbeats to stderr\n"
      "             [--progress-out=FILE] JSONL heartbeats to FILE\n"
      "             [--progress-interval=SEC] heartbeat throttle (default 1)\n"
      "  sweep      sweep worker counts for several strategies\n"
      "             --kernel=... [--p=10,50,100] [--strategies=a,b,c]\n"
      "             [--beta=] [--timed ...] [--faults=...]\n"
      "             [--analysis] [--json] [--spec=FILE.hspec]\n"
      "  tune       print the analysis-optimal beta for (kernel, p, n)\n"
      "  partition  static 7/4 rectangle partition for explicit speeds\n"
      "             --speeds=10,40,25,25 [--n=100]\n"
      "  dag        compare ready-task policies on a factorization graph\n"
      "             --factorization=cholesky [--tiles=16] [--p=8]\n"
      "             [--reps=3] [--seed=]\n"
      "             [--events-out=FILE] [--policy=NAME] record one traced\n"
      "                                  rep of NAME as hetsched-trace/1\n"
      "                                  JSONL for `analyze`\n"
      "  campaign   run a strategy x worker-count matrix as one parallel\n"
      "             batch, JSON output\n"
      "             --kernel=... [--strategies=a,b] [--p=10,50] [--reps=]\n"
      "             [--n=100,200] [--beta=] [--name=] [--timed ...]\n"
      "             [--faults=...]\n"
      "             [--spec=FILE.hspec]  load a scenario spec; flags\n"
      "                                  override its fields\n"
      "             [--progress] [--progress-out=FILE]\n"
      "             [--progress-interval=SEC]\n"
      "  validate   check a .hspec spec end to end without running it;\n"
      "             prints the expanded entries and config hashes\n"
      "             --spec=FILE.hspec [--canonical]\n"
      "  analyze    post-hoc report over a hetsched-trace/1 JSONL file:\n"
      "             per-worker time attribution, phase timeline, critical\n"
      "             path, ODE-divergence verdict\n"
      "             --trace=FILE [--json] [--json-out=FILE] [--md-out=FILE]\n"
      "             [--alarm=0.15] [--support=0.02] [--profile]\n"
      "  help       this text\n";
  return 2;
}

// The --progress / --progress-out / --progress-interval flags, read
// before any work starts.
struct ProgressFlags {
  bool on;
  std::string path;
  double interval;

  explicit ProgressFlags(const CliArgs& args)
      : on(args.get_bool("progress", false)),
        path(args.get("progress-out", "")),
        interval(args.get_double("progress-interval", 1.0)) {}
};

// Owns the optional live progress reporter plus its output file. The
// file (if any) lives on the heap so the reporter's stream reference
// stays valid wherever the setup struct ends up.
struct ProgressSetup {
  std::unique_ptr<std::ofstream> file;
  std::unique_ptr<ProgressReporter> reporter;

  ProgressReporter* get() const noexcept { return reporter.get(); }
};

ProgressSetup make_progress(const ProgressFlags& flags) {
  ProgressSetup setup;
  const std::string& path = flags.path;
  if (!flags.on && path.empty()) return setup;
  ProgressReporter::Options options;
  options.min_interval_sec = flags.interval;
  if (!path.empty()) {
    setup.file = std::make_unique<std::ofstream>(path);
    if (!*setup.file) throw std::runtime_error("cannot open " + path);
    setup.reporter = std::make_unique<ProgressReporter>(*setup.file, options);
  } else {
    options.jsonl = false;  // human one-liner, rewritten in place
    setup.reporter = std::make_unique<ProgressReporter>(std::cerr, options);
  }
  return setup;
}

// Re-runs repetition 0 of `config` instrumented and writes the
// requested artifacts: a chrome-tracing / Perfetto JSON file
// (--trace-out) and/or the self-describing hetsched-trace/1 event file
// (--events-out), the run's one record, ready for `hetsched_cli analyze`.
void dump_observability(const ExperimentConfig& config,
                        const std::string& trace_path,
                        const std::string& events_path,
                        double sample_interval) {
  if (trace_path.empty() && events_path.empty()) return;

  InstrumentOptions options;
  options.sample_interval = sample_interval;
  InstrumentedRep rep;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), options,
                       rep);

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) throw std::runtime_error("cannot open " + trace_path);
    export_chrome_trace(out, rep.recording, Platform(rep.outcome.speeds),
                        &rep.sampler);
    std::cerr << "wrote trace to " << trace_path
              << " (load in chrome://tracing or https://ui.perfetto.dev)\n";
  }
  if (!events_path.empty()) {
    std::ofstream out(events_path);
    if (!out) throw std::runtime_error("cannot open " + events_path);
    write_trace_jsonl(out, rep.recording, trace_meta(config, rep),
                      &rep.sampler);
    std::cerr << "wrote event trace to " << events_path
              << " (analyze with: hetsched_cli analyze --trace=" << events_path
              << ")\n";
  }
}

int cmd_run(const CliArgs& args) {
  if (args.has("metrics-out")) {
    std::cerr << "run: --metrics-out was removed; --events-out writes the "
                 "run's record (totals, worker stats, events, samples)\n";
    return 2;
  }
  const ScenarioSpec spec =
      load_spec(args.get("spec", ""), args, run_spec_defaults());
  const bool profile = args.get_bool("profile", false);
  const ProgressFlags progress_flags(args);
  const std::string trace_path = args.get("trace-out", "");
  const std::string events_path = args.get("events-out", "");
  const double sample_interval = args.get_double("sample-interval", 0.0);
  const bool json = args.get_bool("json", false);
  const bool details = args.get_bool("details", false);
  args.reject_unread();

  CompiledCampaign compiled = compile_spec(spec);
  if (compiled.entries.size() != 1) {
    throw SpecError("run: the spec expands to " +
                    std::to_string(compiled.entries.size()) +
                    " experiments; use `campaign` for grids");
  }
  ExperimentConfig config = std::move(compiled.entries.front().config);
  // Telemetry is not configuration: it never enters the spec or the
  // config hash.
  config.profile = profile;

  ProgressSetup progress = make_progress(progress_flags);
  config.progress = progress.get();
  if (progress.get() != nullptr) progress.get()->expect_reps(config.reps);
  const ExperimentResult result = run_experiment(config);
  if (progress.get() != nullptr) progress.get()->finish();
  config.progress = nullptr;  // the instrumented re-run is not counted
  dump_observability(config, trace_path, events_path, sample_interval);
  if (json) {
    write_experiment_json(std::cout, config, result, details);
    return 0;
  }
  std::cout << config.strategy << " on " << config.p << " workers, n="
            << config.n << " (" << config.scenario.name << ")"
            << (config.timed ? " [timed]" : "") << "\n";
  if (result.beta > 0.0) {
    std::cout << "beta                : " << result.beta << "\n";
  }
  std::cout << "normalized volume   : " << result.normalized.mean
            << " (sd " << result.normalized.stddev << ")\n";
  std::cout << "analysis prediction : " << result.analysis_ratio.mean << "\n";
  std::cout << "makespan            : " << result.makespan.mean << "\n";
  if (result.profile.enabled) {
    std::cout << "profile (wall ns, self):\n";
    for (std::size_t i = 0; i < kNumProfSites; ++i) {
      const auto& site = result.profile.sites[i];
      if (site.calls == 0) continue;
      std::cout << "  " << to_string(static_cast<ProfSite>(i)) << " : "
                << site.self_ns << " ns over " << site.calls << " call(s)\n";
    }
  }
  if (!config.faults.empty() && !result.reps.empty()) {
    const auto& rep0 = result.reps.front().sim;
    std::cout << "faults (rep 0)      : " << rep0.crashed_workers
              << " crashed, " << rep0.requeued_tasks << " tasks requeued\n";
  }
  return 0;
}

int cmd_sweep(const CliArgs& args) {
  const ScenarioSpec spec =
      load_spec(args.get("spec", ""), args, batch_spec_defaults());
  // One series per strategy over p: a second n would put two points of
  // one strategy on the same x (grids over n belong to `campaign`).
  if (spec.ns.size() != 1) {
    throw SpecError("sweep: exactly one n (use `campaign` for n grids)");
  }
  const bool analysis = args.get_bool("analysis", true);
  const bool json = args.get_bool("json", false);
  args.reject_unread();
  const auto points = pivot_sweep(compile_campaign(spec).run(),
                                  SweepAxis::kWorkers, analysis);
  if (json) {
    write_sweep_json(std::cout, "p", points);
  } else {
    print_sweep_csv(points, "p", std::cout);
  }
  return 0;
}

int cmd_tune(const CliArgs& args) {
  const Kernel kernel = kernel_from_string(args.get("kernel", "outer"));
  const std::uint32_t p = args.get_count("p", 20);
  const std::uint32_t n =
      args.get_count("n", kernel == Kernel::kOuter ? 100 : 40);
  args.reject_unread();
  const std::vector<double> rs(p, 1.0 / static_cast<double>(p));
  const auto opt = kernel == Kernel::kOuter
                       ? OuterAnalysis(rs, n).optimal_beta()
                       : MatmulAnalysis(rs, n).optimal_beta();
  std::cout << "kernel=" << to_string(kernel) << " p=" << p << " n=" << n
            << "\n";
  std::cout << "beta*            : " << opt.x << "\n";
  std::cout << "predicted ratio  : " << opt.f << "\n";
  std::cout << "phase2 fraction  : " << std::exp(-opt.x) << "\n";
  return 0;
}

int cmd_partition(const CliArgs& args) {
  const std::vector<std::string> speed_items = args.get_list("speeds");
  const std::uint32_t n = args.get_count("n", 100);
  args.reject_unread();
  if (speed_items.empty()) {
    std::cerr << "partition: --speeds=s1,s2,... is required\n";
    return 2;
  }
  std::vector<double> speeds;
  for (const auto& tok : speed_items) {
    double speed = 0.0;
    if (!parse_double_strict(tok, speed) || !std::isfinite(speed) ||
        speed <= 0.0) {
      throw std::invalid_argument(
          "--speeds: expected a finite number > 0, got '" + tok + "'");
    }
    speeds.push_back(speed);
  }
  const Platform platform(speeds);
  const auto rs = platform.relative_speeds();
  const SquarePartition part = partition_unit_square(rs);
  TableWriter table({"worker", "speed", "x", "y", "w", "h", "half-perim"});
  for (std::size_t k = 0; k < part.rects.size(); ++k) {
    const auto& r = part.rects[k];
    table.row({std::to_string(k), CsvWriter::format(speeds[k], 4),
               CsvWriter::format(r.x, 4), CsvWriter::format(r.y, 4),
               CsvWriter::format(r.w, 4), CsvWriter::format(r.h, 4),
               CsvWriter::format(r.half_perimeter(), 4)});
  }
  table.print(std::cout);
  std::cout << "columns: " << part.columns
            << ", total half-perimeter: " << part.total_half_perimeter
            << ", vs lower bound: " << static_outer_ratio(rs) << "x\n";
  std::cout << "static volume for n=" << n << ": "
            << static_outer_volume(n, rs) << " blocks\n";
  return 0;
}

int cmd_dag(const CliArgs& args) {
  const std::string fact = args.get("factorization", "cholesky");
  const std::uint32_t tiles = args.get_count("tiles", 16);
  const std::uint32_t p = args.get_count("p", 8);
  const std::uint32_t reps = args.get_count("reps", 3);
  const std::uint64_t seed = args.get_int("seed", 42);
  // The --events-out policy, checked before the table is printed.
  const auto& names = dag_policy_names();
  const std::string policy_name = args.get("policy", names.front());
  if (std::find(names.begin(), names.end(), policy_name) == names.end()) {
    throw std::invalid_argument("--policy: unknown DAG policy '" +
                                policy_name + "'");
  }
  const std::string events_path = args.get("events-out", "");
  args.reject_unread();

  if (fact != "cholesky") {
    std::cerr << "dag: unknown factorization " << fact << "\n";
    return 2;
  }
  const TaskGraph graph = build_cholesky_graph(tiles).graph;
  std::cout << fact << " T=" << tiles << ": " << graph.num_tasks()
            << " tasks, " << graph.num_tiles() << " tiles, critical path "
            << graph.critical_path() << "\n";

  TableWriter table({"policy", "transfers", "makespan/LB"});
  for (const auto& name : dag_policy_names()) {
    double transfers = 0.0, inflation = 0.0;
    for (std::uint32_t r = 0; r < reps; ++r) {
      const std::uint64_t rep_seed =
          derive_stream(seed, "rep." + std::to_string(r));
      Rng speed_rng(derive_stream(rep_seed, "speeds"));
      const Platform platform =
          make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
      auto policy = make_dag_policy(name, rep_seed);
      const DagSimResult result = simulate_dag(graph, platform, *policy);
      transfers += static_cast<double>(result.total_transfers);
      inflation += result.makespan /
                   DagSimResult::makespan_lower_bound(graph, platform);
    }
    table.row({name, CsvWriter::format(transfers / reps, 6),
               CsvWriter::format(inflation / reps, 4)});
  }
  table.print(std::cout);

  // --events-out: record one extra rep of --policy (default: the first
  // registered policy) as a hetsched-trace/1 file for `analyze`. DAG
  // meta carries the graph bounds so the report can rate the schedule.
  if (!events_path.empty()) {
    const std::uint64_t rep_seed = derive_stream(seed, "rep.0");
    Rng speed_rng(derive_stream(rep_seed, "speeds"));
    const Platform platform =
        make_platform(UniformIntervalSpeeds(10.0, 100.0), p, speed_rng);
    auto policy = make_dag_policy(policy_name, rep_seed);
    RecordingTrace trace(1u << 20);
    DagSimConfig config;
    config.seed = rep_seed;
    const DagSimResult result =
        simulate_dag(graph, platform, *policy, config, &trace);

    std::ofstream out(events_path);
    if (!out) throw std::runtime_error("cannot open " + events_path);
    TraceMeta meta;
    meta.engine = "dag";
    meta.strategy = policy_name;
    meta.n = tiles;
    meta.p = p;
    meta.makespan = result.makespan;
    meta.speeds = platform.speeds();
    meta.graph_critical_path = graph.critical_path();
    meta.makespan_lower_bound =
        DagSimResult::makespan_lower_bound(graph, platform);
    meta.requeued_tasks = result.requeued_tasks;
    meta.crashed_workers = result.crashed_workers;
    meta.workers.reserve(result.workers.size());
    for (const auto& w : result.workers) {
      meta.workers.push_back({w.tasks_done, w.blocks_received,
                              w.messages_received, w.busy_time, w.finish_time,
                              w.starved_time});
    }
    write_trace_jsonl(out, trace, meta);
    std::cerr << "wrote event trace to " << events_path
              << " (analyze with: hetsched_cli analyze --trace=" << events_path
              << ")\n";
  }
  return 0;
}

int cmd_campaign(const CliArgs& args) {
  const std::uint32_t jobs = args.get_thread_count("jobs", 0);
  const ScenarioSpec spec =
      load_spec(args.get("spec", ""), args, batch_spec_defaults());
  const ProgressFlags progress_flags(args);
  args.reject_unread();
  const Campaign campaign = compile_campaign(spec);
  ProgressSetup progress = make_progress(progress_flags);
  const auto outcomes = campaign.run(jobs, progress.get());
  if (progress.get() != nullptr) progress.get()->finish();
  write_campaign_json(std::cout, campaign.name(), outcomes);
  return 0;
}

// Validates a .hspec file end to end (parse -> resolve -> validate ->
// compile) without running anything, and shows what it would run:
// the expanded entry labels with their config hashes, or the canonical
// spec text with --canonical. CI runs this over every checked-in spec.
int cmd_validate(const CliArgs& args) {
  const std::string path = args.get("spec", "");
  if (path.empty()) {
    std::cerr << "validate: --spec=FILE is required\n";
    return 2;
  }
  const ScenarioSpec spec = load_spec(path, args, batch_spec_defaults());
  const bool canonical = args.get_bool("canonical", false);
  args.reject_unread();
  const CompiledCampaign compiled = compile_spec(spec);
  if (canonical) {
    std::cout << canonical_text(spec);
    return 0;
  }
  std::cout << compiled.name << ": " << compiled.entries.size()
            << " experiment(s)\n";
  for (const auto& entry : compiled.entries) {
    std::cout << "  " << entry.label << "  config_hash="
              << JsonWriter::hex16(entry.config.config_hash) << "\n";
  }
  return 0;
}

int cmd_analyze(const CliArgs& args) {
  const std::string path = args.get("trace", "");
  if (path.empty()) {
    std::cerr << "analyze: --trace=FILE is required\n";
    return 2;
  }
  AnalyzeOptions options;
  options.ode_alarm_threshold =
      args.get_double("alarm", options.ode_alarm_threshold);
  options.ode_support_min =
      args.get_double("support", options.ode_support_min);
  // A NaN threshold compares false both ways and would print OK.
  if (!std::isfinite(options.ode_alarm_threshold) ||
      options.ode_alarm_threshold < 0.0) {
    throw std::invalid_argument("--alarm: expected a finite number >= 0, got " +
                                args.get("alarm", ""));
  }
  if (!(options.ode_support_min >= 0.0 && options.ode_support_min <= 1.0)) {
    throw std::invalid_argument("--support: expected a number in [0, 1], got " +
                                args.get("support", ""));
  }

  const bool profile = args.get_bool("profile", false);
  const std::string json_path = args.get("json-out", "");
  const std::string md_path = args.get("md-out", "");
  const bool json = args.get_bool("json", false);
  args.reject_unread();

  // The analyzer profiles itself through the same site taxonomy as the
  // rep loop; --profile surfaces it on stderr.
  ProfShard shard;
  ProfShard* prof = profile ? &shard : nullptr;

  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  TraceAnalysis analysis;
  {
    ProfScope scope(prof, ProfSite::kAnalyze);
    analysis = analyze_trace_stream(in, options);
  }
  {
    ProfScope scope(prof, ProfSite::kExport);
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw std::runtime_error("cannot open " + json_path);
      write_analysis_json(out, analysis);
      std::cerr << "wrote analysis JSON to " << json_path << "\n";
    }
    if (!md_path.empty()) {
      std::ofstream out(md_path);
      if (!out) throw std::runtime_error("cannot open " + md_path);
      write_analysis_markdown(out, analysis);
      std::cerr << "wrote analysis report to " << md_path << "\n";
    }
    if (json) {
      write_analysis_json(std::cout, analysis);
    } else {
      write_analysis_markdown(std::cout, analysis);
    }
  }
  for (const auto& warning : analysis.warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  if (prof != nullptr) {
    std::cerr << "profile: analyze "
              << shard.sites[static_cast<std::size_t>(ProfSite::kAnalyze)].ns
              << " ns, export "
              << shard.sites[static_cast<std::size_t>(ProfSite::kExport)].ns
              << " ns\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const CliArgs args(argc - 1, argv + 1);
    if (command == "run") return cmd_run(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "tune") return cmd_tune(args);
    if (command == "partition") return cmd_partition(args);
    if (command == "dag") return cmd_dag(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "validate") return cmd_validate(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "help" || command == "--help") {
      usage();
      return 0;
    }
    std::cerr << "unknown command: " << command << "\n\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
