// The traced pass of the end-to-end benchmark: per-layer numbers,
// measured from outside the library.
//
// Reps 0 and 1 of every entry run single-threaded through a copy of
// run_single's steps in which every library call is timed. The strategy
// sits behind a decorator that times on_request and requeue; the DAG
// policy sits behind one that times select. Spans cover entry -> rep ->
// platform, resolve_beta, build|reset, engine, analysis. Each traced rep
// is paired with an untraced rep of the same seed through the public
// path (run_single, simulate_dag): the pair gives the tracing overhead
// and checks that tracing changed no result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "workload.hpp"

namespace e2e {

/// One interval of the traced pass. Spans of one rep share `entry` and
/// `rep`; `parent` is the id of the enclosing span (0 = none).
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::string entry;
  int rep = -1;
  double start_s = 0.0;  // since the traced pass began
  double dur_s = 0.0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct TracedPass {
  /// Per-layer metrics; a layer the workload never ran reads 0.
  std::vector<Metric> layers;
  /// One per pair: the control's output checks, and whether the traced
  /// rep reproduced the control's results exactly.
  std::vector<EntryCheck> checks;
  std::vector<Span> spans;
};

TracedPass run_traced(const Loaded& loaded);

/// Writes one JSON object per span.
void write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace e2e
