#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "obs/instrument.hpp"
#include "obs/overlay.hpp"
#include "sim/trace.hpp"

namespace hetsched {
namespace {

// One traced flat/timed repetition plus the meta record the CLI writes
// next to it (hetsched_cli run --events-out).
struct TracedRun {
  InstrumentedRep rep;
  TraceMeta meta;
};

void run_traced(const ExperimentConfig& config, TracedRun& out,
                std::size_t max_events = 1u << 20) {
  InstrumentOptions options;
  options.max_trace_events = max_events;
  run_instrumented_rep(config, derive_stream(config.seed, "rep.0"), options,
                       out.rep);
  out.meta = trace_meta(config, out.rep);
}

ExperimentConfig small_outer_config() {
  ExperimentConfig config;
  config.kernel = Kernel::kOuter;
  config.strategy = "DynamicOuter";
  config.n = 12;
  config.p = 4;
  config.seed = 7;
  return config;
}

TEST(AnalyzeTrace, WorkerRowsUseExactEngineStats) {
  TracedRun run;
  run_traced(small_outer_config(), run);
  const TraceAnalysis analysis =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);

  ASSERT_EQ(analysis.workers.size(), 4u);
  std::uint64_t tasks = 0;
  for (std::size_t k = 0; k < analysis.workers.size(); ++k) {
    const auto& row = analysis.workers[k];
    EXPECT_TRUE(row.exact);
    EXPECT_EQ(row.worker, k);
    EXPECT_DOUBLE_EQ(row.busy, run.rep.outcome.sim.workers[k].busy_time);
    EXPECT_DOUBLE_EQ(row.finish, run.rep.outcome.sim.workers[k].finish_time);
    EXPECT_GE(row.idle, 0.0);
    EXPECT_GE(row.tail_idle, 0.0);
    EXPECT_NEAR(row.comm,
                static_cast<double>(row.blocks) / run.meta.bandwidth, 1e-12);
    tasks += row.tasks;
  }
  EXPECT_EQ(tasks, 144u);  // n^2 outer-product tasks
  EXPECT_TRUE(analysis.warnings.empty());
}

TEST(AnalyzeTrace, StreamAndInMemoryReportsAreIdentical) {
  ExperimentConfig config = small_outer_config();
  config.strategy = "DynamicOuter2Phases";
  config.phase2_fraction = std::exp(-2.0);
  TracedRun run;
  run_traced(config, run);

  std::ostringstream file;
  write_trace_jsonl(file, run.rep.recording, run.meta, &run.rep.sampler);

  const TraceAnalysis in_memory =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);
  std::istringstream in(file.str());
  const TraceAnalysis from_stream = analyze_trace_stream(in);

  std::ostringstream a, b;
  write_analysis_json(a, in_memory);
  write_analysis_json(b, from_stream);
  EXPECT_EQ(a.str(), b.str());

  std::ostringstream ma, mb;
  write_analysis_markdown(ma, in_memory);
  write_analysis_markdown(mb, from_stream);
  EXPECT_EQ(ma.str(), mb.str());
}

TEST(AnalyzeTrace, PhaseTimelineSplitsAtRecordedSwitch) {
  ExperimentConfig config = small_outer_config();
  config.strategy = "DynamicOuter2Phases";
  config.phase2_fraction = std::exp(-2.0);
  TracedRun run;
  run_traced(config, run);
  ASSERT_EQ(run.rep.recording.phase_switches().size(), 1u);
  const double switch_time = run.rep.recording.phase_switches()[0].time;

  const TraceAnalysis analysis =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);
  ASSERT_EQ(analysis.phases.size(), 2u);
  EXPECT_EQ(analysis.phases[0].name, "phase1");
  EXPECT_EQ(analysis.phases[1].name, "phase2");
  EXPECT_DOUBLE_EQ(analysis.phases[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(analysis.phases[0].end, switch_time);
  EXPECT_DOUBLE_EQ(analysis.phases[1].begin, switch_time);
  EXPECT_DOUBLE_EQ(analysis.phases[1].end, run.meta.makespan);
  EXPECT_EQ(analysis.phases[0].tasks + analysis.phases[1].tasks,
            run.rep.recording.completions().size());
  EXPECT_GT(analysis.phases[0].tasks, 0u);
  EXPECT_GT(analysis.phases[1].tasks, 0u);
}

TEST(AnalyzeTrace, CriticalPathEndsAtTheMakespan) {
  TracedRun run;
  run_traced(small_outer_config(), run);
  const TraceAnalysis analysis =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);

  ASSERT_FALSE(analysis.critical_path.empty());
  const auto& last = analysis.critical_path.back();
  // The anchor is the latest completion; in the flat engine that is
  // within one task of the makespan.
  EXPECT_NEAR(last.finish, run.meta.makespan, run.meta.makespan * 0.05);
  double prev_finish = 0.0;
  double compute = 0.0, wait = 0.0;
  for (const auto& hop : analysis.critical_path) {
    EXPECT_GE(hop.start, prev_finish - 1e-6);  // execution order
    EXPECT_GE(hop.finish, hop.start);
    EXPECT_GE(hop.wait, 0.0);
    EXPECT_LT(hop.worker, run.meta.p);
    prev_finish = hop.finish;
    compute += hop.finish - hop.start;
    wait += hop.wait;
  }
  EXPECT_NEAR(analysis.critical_compute, compute, 1e-9);
  EXPECT_NEAR(analysis.critical_wait, wait, 1e-9);
  // The chain spans the run: compute + wait reaches the anchor.
  EXPECT_LE(analysis.critical_compute, run.meta.makespan + 1e-9);
}

TEST(AnalyzeTrace, OdeDivergenceVerdictFollowsThreshold) {
  TracedRun run;
  run_traced(small_outer_config(), run);

  AnalyzeOptions strict;
  strict.ode_alarm_threshold = 1e-12;
  const TraceAnalysis alarmed =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler, strict);
  ASSERT_TRUE(alarmed.ode_available);
  EXPECT_GT(alarmed.ode_max_divergence, 0.0);
  EXPECT_GE(alarmed.ode_integrated_divergence, 0.0);
  EXPECT_TRUE(alarmed.ode_alarm);

  AnalyzeOptions lax;
  lax.ode_alarm_threshold = 10.0;
  const TraceAnalysis ok =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler, lax);
  EXPECT_FALSE(ok.ode_alarm);
  // A dynamic strategy on n=12 tracks the fluid model loosely but
  // should not diverge by more than the whole range.
  EXPECT_LT(ok.ode_max_divergence, 1.0);

  // No sampled series => no verdict, no alarm.
  const TraceAnalysis blind = analyze_trace(run.rep.recording, run.meta);
  EXPECT_FALSE(blind.ode_available);
  EXPECT_FALSE(blind.ode_alarm);
}

// analyze's ode section is the shared comparison of obs/overlay.hpp,
// read back from the trace file.
TEST(AnalyzeTrace, OdeSectionIsTheSharedComparison) {
  ExperimentConfig config = small_outer_config();
  config.n = 40;
  TracedRun run;
  run_traced(config, run);
  std::ostringstream file;
  write_trace_jsonl(file, run.rep.recording, run.meta, &run.rep.sampler);
  std::istringstream in(file.str());
  const TraceAnalysis analysis = analyze_trace_stream(in);

  const OdeDivergence div = ode_divergence(
      config.kernel, run.rep.outcome.speeds, config.n,
      run.rep.sampler.times(), run.rep.sampler.series("unmarked_fraction"),
      AnalyzeOptions{}.ode_support_min);
  ASSERT_TRUE(analysis.ode_available);
  EXPECT_GT(div.support_samples, 0u);
  EXPECT_EQ(analysis.ode_max_divergence, div.max);
  EXPECT_EQ(analysis.ode_integrated_divergence, div.integrated);
  EXPECT_EQ(analysis.ode_alarm,
            div.max > AnalyzeOptions{}.ode_alarm_threshold);
}

// The predecessor walk as first written: a scan over every interval per
// hop. The analyzer's binary search must pick the same hops.
std::vector<TraceAnalysis::CriticalHop> brute_force_critical_path(
    const std::vector<TraceAnalysis::CriticalHop>& intervals,
    double makespan) {
  std::vector<TraceAnalysis::CriticalHop> chain;
  if (intervals.empty()) return chain;
  const double eps = std::max(1e-12, makespan * 1e-9);
  std::size_t cur = 0;
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].finish > intervals[cur].finish) cur = i;
  }
  while (chain.size() < intervals.size()) {
    TraceAnalysis::CriticalHop hop = intervals[cur];
    hop.wait = 0.0;
    if (hop.start <= eps) {
      chain.push_back(hop);
      break;
    }
    std::size_t best = intervals.size();
    double best_finish = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      if (i == cur) continue;
      const auto& cand = intervals[i];
      if (cand.finish > hop.start + eps) continue;
      if (cand.finish > best_finish ||
          (cand.finish == best_finish && cand.worker == hop.worker)) {
        best_finish = cand.finish;
        best = i;
      }
    }
    if (best == intervals.size()) {
      chain.push_back(hop);
      break;
    }
    hop.wait = std::max(0.0, hop.start - intervals[best].finish);
    chain.push_back(hop);
    cur = best;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

// Random traces on a half-unit time grid: completions tie exactly
// within a worker and across workers, gaps make the chain jump
// workers, and DAG hand-outs at the completion time give zero-length
// intervals with a finish time of their own.
TEST(AnalyzeTrace, CriticalPathMatchesBruteForceWalk) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed);
    const bool dag = seed % 2 == 0;
    const std::uint32_t p = 1 + static_cast<std::uint32_t>(rng.next_u64() % 5);
    const std::size_t completions = 1 + rng.next_u64() % 60;
    RecordingTrace trace;
    std::vector<double> now(p, 0.0);
    std::vector<TraceAnalysis::CriticalHop> intervals;
    double makespan = 0.0;
    for (std::size_t task = 0; task < completions; ++task) {
      const auto w = static_cast<std::uint32_t>(rng.next_u64() % p);
      const double prev = now[w];
      now[w] += 0.5 * static_cast<double>(rng.next_u64() % 4);  // gap 0 .. 1.5
      // The analyzer's reconstruction: a flat task lasts min(1 / speed,
      // gap); a DAG task starts at its hand-out, after the previous one.
      double start = now[w] - std::min(1.0, now[w] - prev);
      if (dag) {
        const double handed =
            now[w] - 0.5 * static_cast<double>(rng.next_u64() % 4);
        Assignment assignment;
        assignment.tasks.push_back(task);
        trace.on_assignment(w, handed, assignment);
        start = std::max(prev, std::min(now[w], handed));
      }
      trace.on_completion(w, now[w], task);
      intervals.push_back({w, task, start, now[w], 0.0});
      makespan = std::max(makespan, now[w]);
    }
    TraceMeta meta;
    meta.engine = dag ? "dag" : "flat";
    meta.p = p;
    meta.makespan = makespan;
    meta.speeds.assign(p, 1.0);

    const auto expected = brute_force_critical_path(intervals, makespan);
    const auto path = analyze_trace(trace, meta).critical_path;
    ASSERT_EQ(path.size(), expected.size()) << seed;
    for (std::size_t h = 0; h < path.size(); ++h) {  // task ids are unique
      EXPECT_EQ(path[h].task, expected[h].task) << seed << " hop " << h;
      EXPECT_EQ(path[h].wait, expected[h].wait) << seed << " hop " << h;
    }
  }
}

TEST(AnalyzeTrace, TruncatedTraceCarriesWarning) {
  TracedRun run;
  run_traced(small_outer_config(), run, /*max_events=*/50);
  ASSERT_GT(run.rep.recording.dropped_events(), 0u);
  const TraceAnalysis analysis =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);
  ASSERT_FALSE(analysis.warnings.empty());
  EXPECT_NE(analysis.warnings[0].find("truncated"), std::string::npos);
  // The markdown surfaces it as a blockquote.
  std::ostringstream md;
  write_analysis_markdown(md, analysis);
  EXPECT_NE(md.str().find("truncated"), std::string::npos);
}

TEST(AnalyzeTrace, CholeskyDagTraceProducesAllSections) {
  const CholeskyGraph cholesky = build_cholesky_graph(6);
  Platform platform({10.0, 25.0, 40.0, 80.0});
  auto policy = make_dag_policy("CriticalPathDag", 11);
  RecordingTrace trace;
  DagSimConfig sim_config;
  sim_config.seed = 11;
  const DagSimResult result =
      simulate_dag(cholesky.graph, platform, *policy, sim_config, &trace);

  TraceMeta meta;
  meta.engine = "dag";
  meta.strategy = "CriticalPathDag";
  meta.n = cholesky.tiles;
  meta.p = 4;
  meta.makespan = result.makespan;
  meta.speeds = platform.speeds();
  meta.graph_critical_path = cholesky.graph.critical_path();
  meta.makespan_lower_bound =
      DagSimResult::makespan_lower_bound(cholesky.graph, platform);
  for (const auto& w : result.workers) {
    meta.workers.push_back({w.tasks_done, w.blocks_received,
                            w.messages_received, w.busy_time, w.finish_time,
                            w.starved_time});
  }

  const TraceAnalysis analysis = analyze_trace(trace, meta);
  ASSERT_EQ(analysis.workers.size(), 4u);
  std::uint64_t tasks = 0;
  for (const auto& row : analysis.workers) {
    EXPECT_TRUE(row.exact);
    tasks += row.tasks;
  }
  EXPECT_EQ(tasks, cholesky.graph.num_tasks());
  ASSERT_EQ(analysis.phases.size(), 1u);
  EXPECT_EQ(analysis.phases[0].name, "run");
  ASSERT_FALSE(analysis.critical_path.empty());
  EXPECT_FALSE(analysis.ode_available);

  // Round-trip through the file format preserves the DAG bounds.
  std::ostringstream file;
  write_trace_jsonl(file, trace, meta);
  EXPECT_NE(file.str().find("\"graph_critical_path\""), std::string::npos);
  EXPECT_NE(file.str().find("\"makespan_lower_bound\""), std::string::npos);
  std::istringstream in(file.str());
  const TraceAnalysis from_stream = analyze_trace_stream(in);
  std::ostringstream a, b;
  write_analysis_json(a, analysis);
  write_analysis_json(b, from_stream);
  EXPECT_EQ(a.str(), b.str());
}

TEST(AnalyzeTrace, ReportsCarrySchemaAndAllFourSections) {
  TracedRun run;
  run_traced(small_outer_config(), run);
  const TraceAnalysis analysis =
      analyze_trace(run.rep.recording, run.meta, &run.rep.sampler);

  std::ostringstream json;
  write_analysis_json(json, analysis);
  EXPECT_NE(json.str().find("\"schema\": \"hetsched-analysis/1\""),
            std::string::npos);
  for (const char* key : {"\"workers\"", "\"phases\"", "\"critical_path\"",
                          "\"ode\"", "\"warnings\""}) {
    EXPECT_NE(json.str().find(key), std::string::npos) << key;
  }

  std::ostringstream md;
  write_analysis_markdown(md, analysis);
  for (const char* header :
       {"# Trace analysis", "## Per-worker time attribution",
        "## Phase timeline", "## Critical path", "## ODE divergence"}) {
    EXPECT_NE(md.str().find(header), std::string::npos) << header;
  }
}

TEST(AnalyzeTraceStream, MalformedInputThrows) {
  {
    std::istringstream in("this is not json\n");
    EXPECT_THROW(analyze_trace_stream(in), std::runtime_error);
  }
  {
    // Valid JSON but no meta record.
    std::istringstream in("{\"type\":\"complete\",\"w\":0,\"t\":1,\"task\":0}\n");
    EXPECT_THROW(analyze_trace_stream(in), std::runtime_error);
  }
  {
    std::istringstream in("");
    EXPECT_THROW(analyze_trace_stream(in), std::runtime_error);
  }
  // Out-of-range indices and counts must be rejected, naming the line,
  // before any vector is sized or indexed by them.
  const std::string meta =
      "{\"type\":\"meta\",\"engine\":\"flat\",\"kernel\":\"outer\","
      "\"n\":2,\"p\":2,\"makespan\":1,\"speeds\":[1,2]}\n";
  const std::string dag_meta =
      "{\"type\":\"meta\",\"engine\":\"dag\",\"p\":1,\"speeds\":[1]}\n";
  const std::string complete = "{\"type\":\"complete\",\"t\":1,";
  const std::vector<std::string> cases = {
      // Meta must come first, and only once.
      complete + "\"w\":0,\"task\":0}\n" + meta,
      meta + meta,
      // Worker indices outside [0, p), or not integers.
      meta + complete + "\"w\":4294967295,\"task\":0}\n",
      meta + complete + "\"w\":-1,\"task\":0}\n",
      meta + complete + "\"w\":2,\"task\":0}\n",
      meta + complete + "\"w\":0.5,\"task\":0}\n",
      meta + complete + "\"task\":0}\n",
      meta + "{\"type\":\"worker\",\"id\":1e18,\"tasks\":1}\n",
      meta + "{\"type\":\"worker\",\"id\":-1}\n",
      meta + "{\"type\":\"assign\",\"w\":9,\"t\":0,\"tasks\":[0]}\n",
      meta + "{\"type\":\"retire\",\"w\":\"0\",\"t\":1}\n",
      // Counts and task ids: non-negative integers up to 2^53.
      meta + complete + "\"w\":0,\"task\":-3}\n",
      meta + complete + "\"w\":0,\"task\":1e300}\n",
      meta + "{\"type\":\"assign\",\"w\":0,\"t\":0,\"tasks\":[-1]}\n",
      meta + "{\"type\":\"assign\",\"w\":0,\"t\":0,\"tasks\":[0],"
             "\"blocks\":-2}\n",
      meta + "{\"type\":\"phase_switch\",\"t\":0,\"remaining\":-1}\n",
      meta + "{\"type\":\"fallback\",\"t\":0,\"remaining\":1.5}\n",
      meta + "{\"type\":\"worker\",\"id\":0,\"messages\":-1}\n",
      "{\"type\":\"meta\",\"p\":1,\"speeds\":[1],"
      "\"requeued_tasks\":-1}\n",
      "{\"type\":\"meta\",\"p\":1,\"speeds\":[1],"
      "\"crashed_workers\":1e17}\n",
      // p must be bounded by the file's own speeds list.
      "{\"type\":\"meta\",\"p\":4294967295,\"speeds\":[1]}\n",
      "{\"type\":\"meta\",\"p\":1e18,\"speeds\":[1]}\n",
      "{\"type\":\"meta\",\"p\":2}\n",
      "{\"type\":\"meta\",\"p\":1,\"speeds\":[0]}\n",
      // A DAG task id from the file never sizes a vector.
      dag_meta + "{\"type\":\"assign\",\"w\":0,\"t\":0,"
                 "\"tasks\":[1e16]}\n",
      // A present number field that is not a number is corrupt, not 0.
      meta + "{\"type\":\"complete\",\"t\":\"late\",\"w\":0,\"task\":0}\n",
      "{\"type\":\"meta\",\"kernel\":\"outer\",\"n\":2,\"p\":2,"
      "\"speeds\":[1,2],\"channels\":[\"unmarked_fraction\"]}\n"
      "{\"type\":\"sample\",\"t\":0.5,\"v\":[\"x\"]}\n",
      "{\"type\":\"meta\",\"p\":1,\"speeds\":[1],\"makespan\":\"1\"}\n",
  };
  for (const std::string& text : cases) {
    std::istringstream in(text);
    try {
      analyze_trace_stream(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& err) {
      EXPECT_NE(std::string(err.what()).find("trace line "), std::string::npos)
          << err.what();
    }
  }
  // A bad meta record is rejected at line 1, before any model is built.
  std::string huge_speeds = "1e308";
  for (int k = 1; k < 100; ++k) huge_speeds += ",1e308";
  for (const std::string& bad_meta :
       {std::string("{\"type\":\"meta\",\"kernel\":\"foo\",\"p\":1,"
                    "\"speeds\":[1]}"),
        "{\"type\":\"meta\",\"kernel\":\"matmul\",\"n\":4,\"p\":100,"
        "\"speeds\":[" + huge_speeds + "]}"}) {
    std::istringstream in(bad_meta);
    try {
      analyze_trace_stream(in);
      ADD_FAILURE() << "accepted: " << bad_meta;
    } catch (const std::runtime_error& err) {
      EXPECT_EQ(std::string(err.what()).rfind("trace line 1: ", 0), 0u)
          << err.what();
    }
  }
  // In range, the same records are accepted; a huge DAG task id is
  // looked up, not used as an index.
  {
    std::istringstream in(
        dag_meta +
        "{\"type\":\"assign\",\"w\":0,\"t\":0,\"tasks\":[9007199254740992]}\n"
        "{\"type\":\"complete\",\"w\":0,\"t\":1,\"task\":9007199254740992}\n");
    const TraceAnalysis analysis = analyze_trace_stream(in);
    ASSERT_EQ(analysis.critical_path.size(), 1u);
    EXPECT_EQ(analysis.critical_path[0].start, 0.0);
  }
}

// Files written before the run totals and per-worker message counts
// joined the format read those fields as 0.
TEST(AnalyzeTraceStream, OlderFilesReadNewFieldsAsZero) {
  std::istringstream in(
      "{\"type\":\"meta\",\"engine\":\"flat\",\"p\":1,\"speeds\":[2]}\n"
      "{\"type\":\"worker\",\"id\":0,\"tasks\":1,\"blocks\":2,"
      "\"busy\":0.5,\"finish\":0.5,\"starved\":0}\n"
      "{\"type\":\"complete\",\"w\":0,\"t\":0.5,\"task\":0}\n");
  const TraceAnalysis analysis = analyze_trace_stream(in);
  EXPECT_EQ(analysis.meta.requeued_tasks, 0u);
  EXPECT_EQ(analysis.meta.crashed_workers, 0u);
  EXPECT_EQ(analysis.meta.link_busy_time, 0.0);
  ASSERT_EQ(analysis.meta.workers.size(), 1u);
  EXPECT_EQ(analysis.meta.workers[0].messages, 0u);
  EXPECT_EQ(analysis.meta.workers[0].blocks, 2u);
  EXPECT_TRUE(analysis.warnings.empty());
}

}  // namespace
}  // namespace hetsched
