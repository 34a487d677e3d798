#include "obs/analyze.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dag/cholesky.hpp"
#include "dag/dag_engine.hpp"
#include "obs/instrument.hpp"
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
