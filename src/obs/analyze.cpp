#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common/json.hpp"
#include "core/experiment.hpp"
#include "obs/overlay.hpp"
#include "obs/sampler.hpp"
#include "sim/trace.hpp"

namespace hetsched {

namespace {

// ---------------------------------------------------------------------
// Normalized event view shared by the in-memory and stream paths, so
// both produce byte-identical reports (the round-trip test pins this).

struct NormAssign {
  std::uint32_t worker;
  double time;
  std::vector<std::uint64_t> tasks;
  std::uint64_t blocks;
};
struct NormComplete {
  std::uint32_t worker;
  double time;
  std::uint64_t task;
};
struct NormRetire {
  std::uint32_t worker;
  double time;
};
struct NormMarker {  // phase switch / fallback
  double time;
  std::uint64_t remaining;
};

constexpr const char* kUnmarkedChannel = "unmarked_fraction";

struct NormTrace {
  std::vector<NormAssign> assigns;
  std::vector<NormComplete> completes;
  std::vector<NormRetire> retires;
  std::vector<NormMarker> phase_switches;
  std::vector<NormMarker> fallbacks;
  // The sampled unmarked_fraction series, the only channel the
  // analysis reads; both empty when the trace has no such channel.
  std::vector<double> sample_times;
  std::vector<double> unmarked;
};

// ---------------------------------------------------------------------
// Mini JSON parser (recursive descent over one line). The repo's JSON
// support is deliberately writer-only (common/json.hpp); the analyzer
// is the single consumer of JSON input, so the parser lives here,
// private, instead of growing a public DOM.

struct JVal {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JVal> arr;
  std::vector<std::pair<std::string, JVal>> obj;

  const JVal* find(const std::string& key) const {
    if (type != Type::kObj) return nullptr;
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string str_or(const std::string& key, std::string fallback) const {
    const JVal* v = find(key);
    return v != nullptr && v->type == Type::kStr ? v->str
                                                 : std::move(fallback);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JVal parse() {
    JVal v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("trace JSON parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JVal parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JVal v;
        v.type = JVal::Type::kStr;
        v.str = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JVal v;
        v.type = JVal::Type::kBool;
        if (consume_literal("true")) {
          v.b = true;
        } else if (consume_literal("false")) {
          v.b = false;
        } else {
          fail("bad literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("bad literal");
        return JVal{};
      }
      default:
        return parse_number();
    }
  }

  JVal parse_object() {
    expect('{');
    JVal v;
    v.type = JVal::Type::kObj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JVal parse_array() {
    expect('[');
    JVal v;
    v.type = JVal::Type::kArr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writer only escapes control characters; encode the
          // code point as UTF-8 (BMP only — sufficient for round-trip).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("bad escape");
      }
    }
  }

  JVal parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JVal v;
    v.type = JVal::Type::kNum;
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      v.num = std::stod(token, &used);
      if (used != token.size()) fail("bad number: " + token);
    } catch (const std::logic_error&) {
      fail("bad number: " + token);
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// Counts and ids travel as JSON numbers (doubles), which hold every
// integer up to 2^53 exactly; anything else in such a field is corrupt.
bool is_count(const JVal& v) {
  return v.type == JVal::Type::kNum && v.num >= 0.0 &&
         v.num <= 9007199254740992.0 && v.num == std::floor(v.num);
}

// Checked field reads for one trace record; errors name the line.
struct RecordReader {
  const JVal& record;
  std::size_t line_no;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                             what);
  }
  /// Non-negative integer <= 2^53; an absent field reads as 0.
  std::uint64_t count(const char* key) const {
    const JVal* v = record.find(key);
    if (v == nullptr) return 0;
    if (!is_count(*v)) {
      fail(std::string("\"") + key + "\" must be an integer in [0, 2^53]");
    }
    return static_cast<std::uint64_t>(v->num);
  }
  /// A JSON number; an absent field (older writers omit some) reads as
  /// `fallback`.
  double num(const char* key, double fallback) const {
    const JVal* v = record.find(key);
    if (v == nullptr) return fallback;
    if (v->type != JVal::Type::kNum) {
      fail(std::string("\"") + key + "\" must be a number");
    }
    return v->num;
  }
  std::uint32_t u32(const char* key) const {
    const std::uint64_t v = count(key);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      fail(std::string("\"") + key + "\" exceeds 2^32 - 1");
    }
    return static_cast<std::uint32_t>(v);
  }
  /// Required worker index in [0, p).
  std::uint32_t worker(const char* key, std::uint32_t p) const {
    const JVal* v = record.find(key);
    if (v == nullptr || !is_count(*v) || v->num >= static_cast<double>(p)) {
      fail(std::string("\"") + key + "\" must be a worker index in [0, " +
           std::to_string(p) + ")");
    }
    return static_cast<std::uint32_t>(v->num);
  }
};

// ---------------------------------------------------------------------
// Core analysis over the normalized view.

double resolve_makespan(const TraceMeta& meta, const NormTrace& trace) {
  if (meta.makespan > 0.0) return meta.makespan;
  double last = 0.0;
  for (const auto& ev : trace.completes) last = std::max(last, ev.time);
  for (const auto& ev : trace.retires) last = std::max(last, ev.time);
  return last;
}

std::uint32_t resolve_worker_count(const TraceMeta& meta,
                                   const NormTrace& trace) {
  std::uint32_t p = meta.p;
  p = std::max(p, static_cast<std::uint32_t>(meta.workers.size()));
  p = std::max(p, static_cast<std::uint32_t>(meta.speeds.size()));
  for (const auto& ev : trace.assigns) p = std::max(p, ev.worker + 1);
  for (const auto& ev : trace.completes) p = std::max(p, ev.worker + 1);
  for (const auto& ev : trace.retires) p = std::max(p, ev.worker + 1);
  return p;
}

/// Per-completion execution intervals, reconstructed per worker. Flat
/// engines have no recorded start times, so the duration is clamped
/// into the gap since the worker's previous completion (the same rule
/// the Chrome exporter uses); DAG assignments carry one task handed at
/// request time, which bounds the start from below as well.
struct Interval {
  std::uint32_t worker;
  std::uint64_t task;
  double start;
  double finish;
};

std::vector<Interval> build_intervals(const TraceMeta& meta,
                                      const NormTrace& trace,
                                      std::uint32_t p, bool dag) {
  // Keyed by task id rather than indexed by it: ids come from the file.
  std::unordered_map<std::uint64_t, double> assign_time;
  if (dag) {
    // DAG assignments are single-task; map task -> latest assign time
    // (crash requeues reassign the same id; the latest hand-out is the
    // one that completed).
    for (const auto& ev : trace.assigns) {
      for (const std::uint64_t task : ev.tasks) {
        const auto [it, inserted] = assign_time.try_emplace(task, ev.time);
        if (!inserted) it->second = std::max(it->second, ev.time);
      }
    }
  }
  std::vector<double> prev_end(p, 0.0);
  std::vector<Interval> intervals;
  intervals.reserve(trace.completes.size());
  for (const auto& ev : trace.completes) {
    double start;
    if (dag) {
      double assigned = prev_end[ev.worker];
      if (const auto it = assign_time.find(ev.task); it != assign_time.end()) {
        assigned = std::max(assigned, it->second);
      }
      start = std::min(ev.time, assigned);
      start = std::max(start, prev_end[ev.worker]);
    } else {
      const double gap = std::max(0.0, ev.time - prev_end[ev.worker]);
      double duration = gap;
      if (ev.worker < meta.speeds.size() && meta.speeds[ev.worker] > 0.0) {
        duration = std::min(1.0 / meta.speeds[ev.worker], gap);
      }
      start = ev.time - duration;
    }
    prev_end[ev.worker] = ev.time;
    intervals.push_back({ev.worker, ev.task, start, ev.time});
  }
  return intervals;
}

void attribute_workers(TraceAnalysis& out, const NormTrace& trace,
                       const std::vector<Interval>& intervals,
                       std::uint32_t p, double makespan) {
  const TraceMeta& meta = out.meta;
  out.workers.assign(p, {});
  for (std::uint32_t k = 0; k < p; ++k) out.workers[k].worker = k;

  const bool exact = meta.workers.size() == p;
  if (exact) {
    for (std::uint32_t k = 0; k < p; ++k) {
      const auto& stats = meta.workers[k];
      auto& row = out.workers[k];
      row.tasks = stats.tasks;
      row.blocks = stats.blocks;
      row.busy = stats.busy;
      row.finish = stats.finish;
      row.starved = stats.starved;
      row.exact = true;
    }
  } else {
    for (const auto& iv : intervals) {
      auto& row = out.workers[iv.worker];
      ++row.tasks;
      row.busy += iv.finish - iv.start;
      row.finish = std::max(row.finish, iv.finish);
    }
    for (const auto& ev : trace.assigns) {
      out.workers[ev.worker].blocks += ev.blocks;
    }
    for (const auto& ev : trace.retires) {
      auto& row = out.workers[ev.worker];
      row.finish = std::max(row.finish, ev.time);
    }
  }
  for (auto& row : out.workers) {
    if (meta.bandwidth > 0.0) {
      row.comm = static_cast<double>(row.blocks) / meta.bandwidth;
    }
    row.idle = std::max(0.0, row.finish - row.busy - row.starved);
    row.tail_idle = std::max(0.0, makespan - row.finish);
  }
}

void build_phase_timeline(TraceAnalysis& out, const NormTrace& trace,
                          double makespan) {
  struct Boundary {
    double time;
    const char* name;  // segment name *after* the boundary
  };
  std::vector<Boundary> boundaries;
  for (const auto& ev : trace.phase_switches) {
    boundaries.push_back({ev.time, "phase2"});
  }
  for (const auto& ev : trace.fallbacks) {
    boundaries.push_back({ev.time, "fallback"});
  }
  std::sort(boundaries.begin(), boundaries.end(),
            [](const Boundary& a, const Boundary& b) { return a.time < b.time; });

  out.phases.clear();
  if (boundaries.empty()) {
    out.phases.push_back({"run", 0.0, makespan, 0});
  } else {
    out.phases.push_back({"phase1", 0.0, boundaries.front().time, 0});
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
      const double end =
          i + 1 < boundaries.size() ? boundaries[i + 1].time : makespan;
      out.phases.push_back({boundaries[i].name, boundaries[i].time, end, 0});
    }
  }
  for (const auto& ev : trace.completes) {
    // Half-open segments; the final segment also owns its end point so
    // the completion at the makespan is counted.
    for (std::size_t s = 0; s < out.phases.size(); ++s) {
      auto& seg = out.phases[s];
      const bool last = s + 1 == out.phases.size();
      if (ev.time >= seg.begin && (ev.time < seg.end || (last && ev.time <= seg.end))) {
        ++seg.tasks;
        break;
      }
    }
  }
}

void extract_critical_path(TraceAnalysis& out,
                           const std::vector<Interval>& intervals,
                           double makespan) {
  out.critical_path.clear();
  out.critical_compute = 0.0;
  out.critical_wait = 0.0;
  if (intervals.empty()) return;

  const double eps = std::max(1e-12, makespan * 1e-9);
  // Interval indices by (finish, index): each predecessor is a binary
  // search, not a scan.
  const auto finish_of = [&](std::size_t i) { return intervals[i].finish; };
  std::vector<std::size_t> by_finish(intervals.size());
  std::iota(by_finish.begin(), by_finish.end(), std::size_t{0});
  std::ranges::stable_sort(by_finish, {}, finish_of);
  // The first of the last finishers anchors the chain.
  std::size_t cur = *std::ranges::lower_bound(
      by_finish, finish_of(by_finish.back()), {}, finish_of);

  std::vector<TraceAnalysis::CriticalHop> chain;
  const std::size_t max_hops = intervals.size();
  while (chain.size() < max_hops) {
    const Interval& iv = intervals[cur];
    // Predecessor: the latest interval other than this hop finishing
    // at or before its start (none once the chain reaches t = 0);
    // among ties, the last one on this hop's worker, else the first. A
    // back-to-back one on the same worker gives a compute hop (wait 0);
    // otherwise the chain jumps workers and the gap is attributed as
    // wait for the releasing completion.
    std::size_t best = intervals.size();
    auto hi = iv.start <= eps ? by_finish.begin()
                              : std::ranges::upper_bound(
                                    by_finish, iv.start + eps, {}, finish_of);
    if (hi != by_finish.begin() && *(hi - 1) == cur) --hi;
    if (hi != by_finish.begin()) {
      const double latest = finish_of(*(hi - 1));
      for (auto it = std::ranges::lower_bound(by_finish.begin(), hi, latest,
                                              {}, finish_of);
           it != hi; ++it) {
        if (*it == cur) continue;
        if (best == intervals.size() || intervals[*it].worker == iv.worker) {
          best = *it;
        }
      }
    }
    const bool first = best == intervals.size();
    const double wait =
        first ? 0.0 : std::max(0.0, iv.start - intervals[best].finish);
    chain.push_back({iv.worker, iv.task, iv.start, iv.finish, wait});
    if (first) break;
    cur = best;
  }
  std::reverse(chain.begin(), chain.end());
  out.critical_path = std::move(chain);
  for (const auto& hop : out.critical_path) {
    out.critical_compute += hop.finish - hop.start;
    out.critical_wait += hop.wait;
  }
}

void compute_ode_divergence(TraceAnalysis& out, const NormTrace& trace,
                            const AnalyzeOptions& options) {
  const TraceMeta& meta = out.meta;
  out.ode_alarm_threshold = options.ode_alarm_threshold;
  out.ode_available = !trace.unmarked.empty() && !meta.kernel.empty() &&
                      !meta.speeds.empty() && meta.n != 0;
  if (!out.ode_available) return;
  const OdeDivergence div =
      ode_divergence(kernel_from_string(meta.kernel), meta.speeds, meta.n,
                     trace.sample_times, trace.unmarked,
                     options.ode_support_min);
  out.ode_max_divergence = div.max;
  out.ode_integrated_divergence = div.integrated;
  out.ode_alarm = div.max > options.ode_alarm_threshold;
}

TraceAnalysis analyze_impl(const NormTrace& trace, TraceMeta meta,
                           const AnalyzeOptions& options) {
  TraceAnalysis out;
  out.meta = std::move(meta);
  const double makespan = resolve_makespan(out.meta, trace);
  out.meta.makespan = makespan;
  const std::uint32_t p = resolve_worker_count(out.meta, trace);
  const bool dag = out.meta.engine == "dag";

  if (out.meta.dropped_events > 0) {
    out.warnings.push_back(
        "trace truncated: " + std::to_string(out.meta.dropped_events) +
        " event(s) dropped at the recording cap; per-worker attribution, "
        "the phase task counts and the critical path may be biased");
  }
  if (out.meta.workers.size() != p) {
    out.warnings.push_back(
        "no exact per-worker engine stats in trace; busy/idle reconstructed "
        "from completion gaps");
  }

  const std::vector<Interval> intervals =
      build_intervals(out.meta, trace, p, dag);
  attribute_workers(out, trace, intervals, p, makespan);
  build_phase_timeline(out, trace, makespan);
  extract_critical_path(out, intervals, makespan);
  compute_ode_divergence(out, trace, options);
  return out;
}

NormTrace normalize(const RecordingTrace& trace,
                    const TimeSeriesSampler* sampler) {
  NormTrace out;
  out.assigns.reserve(trace.assignments().size());
  for (const auto& ev : trace.assignments()) {
    NormAssign a;
    a.worker = ev.worker;
    a.time = ev.time;
    a.tasks.reserve(ev.assignment.task_count());
    ev.assignment.for_each_task([&](TaskId t) { a.tasks.push_back(t); });
    a.blocks = ev.assignment.block_count();
    out.assigns.push_back(std::move(a));
  }
  out.completes.reserve(trace.completions().size());
  for (const auto& ev : trace.completions()) {
    out.completes.push_back({ev.worker, ev.time, ev.task});
  }
  for (const auto& ev : trace.retirements()) {
    out.retires.push_back({ev.worker, ev.time});
  }
  for (const auto& ev : trace.phase_switches()) {
    out.phase_switches.push_back({ev.time, ev.tasks_remaining});
  }
  for (const auto& ev : trace.fallbacks()) {
    out.fallbacks.push_back({ev.time, ev.tasks_remaining});
  }
  if (sampler != nullptr) {
    out.unmarked = sampler->series(kUnmarkedChannel);
    if (!out.unmarked.empty()) out.sample_times = sampler->times();
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------
// Trace JSONL export.

namespace {

// Writes one JSONL record: {"type":<type>, then what `fields` writes}.
template <typename Fields>
void write_record(std::ostream& out, const char* type, Fields&& fields) {
  JsonWriter json(out, /*pretty=*/false, /*double_precision=*/17);
  json.begin_object();
  json.field("type", type);
  fields(json);
  json.end_object();
  out << '\n';
}

}  // namespace

void write_trace_jsonl(std::ostream& out, const RecordingTrace& trace,
                       const TraceMeta& meta,
                       const TimeSeriesSampler* sampler) {
  write_record(out, "meta", [&](JsonWriter& json) {
    json.field("schema", "hetsched-trace/1");
    json.field("engine", meta.engine);
    json.field("kernel", meta.kernel);
    json.field("strategy", meta.strategy);
    json.field("n", static_cast<std::uint64_t>(meta.n));
    json.field("p", static_cast<std::uint64_t>(meta.p));
    json.field("makespan", meta.makespan);
    json.field("bandwidth", meta.bandwidth);
    json.field("dropped_events", trace.dropped_events());
    json.field("requeued_tasks", meta.requeued_tasks);
    json.field("crashed_workers", meta.crashed_workers);
    json.field("link_busy_time", meta.link_busy_time);
    if (meta.graph_critical_path >= 0.0) {
      json.field("graph_critical_path", meta.graph_critical_path);
    }
    if (meta.makespan_lower_bound >= 0.0) {
      json.field("makespan_lower_bound", meta.makespan_lower_bound);
    }
    json.key("speeds");
    json.begin_array();
    for (const double s : meta.speeds) json.value(s);
    json.end_array();
    if (sampler != nullptr) {
      json.key("channels");
      json.begin_array();
      for (const auto& name : sampler->channel_names()) json.value(name);
      json.end_array();
    }
  });

  for (std::size_t k = 0; k < meta.workers.size(); ++k) {
    const auto& stats = meta.workers[k];
    write_record(out, "worker", [&](JsonWriter& json) {
      json.field("id", static_cast<std::uint64_t>(k));
      json.field("tasks", stats.tasks);
      json.field("blocks", stats.blocks);
      json.field("messages", stats.messages);
      json.field("busy", stats.busy);
      json.field("finish", stats.finish);
      json.field("starved", stats.starved);
    });
  }

  for (const auto& ev : trace.assignments()) {
    write_record(out, "assign", [&](JsonWriter& json) {
      json.field("w", static_cast<std::uint64_t>(ev.worker));
      json.field("t", ev.time);
      json.key("tasks");
      json.begin_array();
      // Lazy expansion: runs stream straight into the writer, so the
      // export never materializes a per-task list.
      ev.assignment.for_each_task([&](TaskId task) { json.value(task); });
      json.end_array();
      json.field("blocks", ev.assignment.block_count());
    });
  }
  for (const auto& ev : trace.completions()) {
    write_record(out, "complete", [&](JsonWriter& json) {
      json.field("w", static_cast<std::uint64_t>(ev.worker));
      json.field("t", ev.time);
      json.field("task", ev.task);
    });
  }
  for (const auto& ev : trace.retirements()) {
    write_record(out, "retire", [&](JsonWriter& json) {
      json.field("w", static_cast<std::uint64_t>(ev.worker));
      json.field("t", ev.time);
    });
  }
  for (const auto& ev : trace.phase_switches()) {
    write_record(out, "phase_switch", [&](JsonWriter& json) {
      json.field("t", ev.time);
      json.field("remaining", ev.tasks_remaining);
    });
  }
  for (const auto& ev : trace.fallbacks()) {
    write_record(out, "fallback", [&](JsonWriter& json) {
      json.field("t", ev.time);
      json.field("remaining", ev.tasks_remaining);
    });
  }

  if (sampler != nullptr) {
    const std::size_t channels = sampler->channel_names().size();
    for (std::size_t row = 0; row < sampler->num_samples(); ++row) {
      write_record(out, "sample", [&](JsonWriter& json) {
        json.field("t", sampler->sample_time(row));
        json.key("v");
        json.begin_array();
        for (std::size_t ch = 0; ch < channels; ++ch) {
          json.value(sampler->sample_value(row, ch));
        }
        json.end_array();
      });
    }
  }
}

// ---------------------------------------------------------------------
// Entry points.

TraceAnalysis analyze_trace(const RecordingTrace& trace, const TraceMeta& meta,
                            const TimeSeriesSampler* sampler,
                            const AnalyzeOptions& options) {
  TraceMeta effective = meta;
  effective.dropped_events =
      std::max(effective.dropped_events, trace.dropped_events());
  return analyze_impl(normalize(trace, sampler), std::move(effective),
                      options);
}

TraceAnalysis analyze_trace_stream(std::istream& in,
                                   const AnalyzeOptions& options) {
  NormTrace trace;
  TraceMeta meta;
  bool saw_meta = false;
  // Sample rows are parallel to meta.channels; the analysis keeps the
  // unmarked_fraction column (unmarked_ch == num_channels: none).
  std::size_t num_channels = 0;
  std::size_t unmarked_ch = 0;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JVal record;
    try {
      record = JsonParser(line).parse();
    } catch (const std::runtime_error& err) {
      throw std::runtime_error("trace line " + std::to_string(line_no) + ": " +
                               err.what());
    }
    const RecordReader r{record, line_no};
    const std::string type = record.str_or("type", "");
    if (type == "meta") {
      if (saw_meta) r.fail("second meta record");
      saw_meta = true;
      meta.engine = record.str_or("engine", "flat");
      meta.kernel = record.str_or("kernel", "");
      if (meta.kernel != "outer" && meta.kernel != "matmul" &&
          !meta.kernel.empty()) {
        r.fail("meta.kernel must be \"outer\", \"matmul\" or \"\", not \"" +
               meta.kernel + "\"");
      }
      meta.strategy = record.str_or("strategy", "");
      meta.n = r.u32("n");
      meta.p = r.u32("p");
      meta.makespan = r.num("makespan", 0.0);
      meta.bandwidth = r.num("bandwidth", 100.0);
      meta.dropped_events = r.count("dropped_events");
      meta.requeued_tasks = r.count("requeued_tasks");
      meta.crashed_workers = r.count("crashed_workers");
      meta.link_busy_time = r.num("link_busy_time", 0.0);
      meta.graph_critical_path = r.num("graph_critical_path", -1.0);
      meta.makespan_lower_bound = r.num("makespan_lower_bound", -1.0);
      // The speeds bound p by the file's own content, so no vector the
      // analysis sizes by p can outgrow what the file describes.
      const JVal* speeds = record.find("speeds");
      if (speeds == nullptr || speeds->type != JVal::Type::kArr ||
          speeds->arr.size() != meta.p) {
        r.fail("meta.speeds must list one speed per worker (p = " +
               std::to_string(meta.p) + ")");
      }
      double total_speed = 0.0;
      for (const JVal& s : speeds->arr) {
        if (s.type != JVal::Type::kNum || !(s.num > 0.0)) {
          r.fail("meta.speeds must be positive numbers");
        }
        meta.speeds.push_back(s.num);
        total_speed += s.num;
      }
      if (!std::isfinite(total_speed)) {
        r.fail("meta.speeds must have a finite sum");
      }
      if (const JVal* channels = record.find("channels");
          channels != nullptr && channels->type == JVal::Type::kArr) {
        const auto& names = channels->arr;
        num_channels = names.size();
        unmarked_ch = static_cast<std::size_t>(
            std::ranges::find(names, kUnmarkedChannel, &JVal::str) -
            names.begin());
      }
      continue;
    }
    if (!saw_meta) r.fail("the meta record must come first");
    if (type == "worker") {
      const std::uint32_t id = r.worker("id", meta.p);
      if (meta.workers.size() <= id) meta.workers.resize(id + 1);
      auto& stats = meta.workers[id];
      stats.tasks = r.count("tasks");
      stats.blocks = r.count("blocks");
      stats.messages = r.count("messages");
      stats.busy = r.num("busy", 0.0);
      stats.finish = r.num("finish", 0.0);
      stats.starved = r.num("starved", 0.0);
    } else if (type == "assign") {
      NormAssign a;
      a.worker = r.worker("w", meta.p);
      a.time = r.num("t", 0.0);
      a.blocks = r.count("blocks");
      if (const JVal* tasks = record.find("tasks");
          tasks != nullptr && tasks->type == JVal::Type::kArr) {
        a.tasks.reserve(tasks->arr.size());
        for (const JVal& t : tasks->arr) {
          if (!is_count(t)) r.fail("task ids must be integers in [0, 2^53]");
          a.tasks.push_back(static_cast<std::uint64_t>(t.num));
        }
      }
      trace.assigns.push_back(std::move(a));
    } else if (type == "complete") {
      trace.completes.push_back(
          {r.worker("w", meta.p), r.num("t", 0.0), r.count("task")});
    } else if (type == "retire") {
      trace.retires.push_back({r.worker("w", meta.p), r.num("t", 0.0)});
    } else if (type == "phase_switch") {
      trace.phase_switches.push_back(
          {r.num("t", 0.0), r.count("remaining")});
    } else if (type == "fallback") {
      trace.fallbacks.push_back(
          {r.num("t", 0.0), r.count("remaining")});
    } else if (type == "sample") {
      const JVal* v = record.find("v");
      const std::size_t width =
          v != nullptr && v->type == JVal::Type::kArr ? v->arr.size() : 0;
      if (width != num_channels) {
        r.fail("sample row width does not match meta.channels");
      }
      if (unmarked_ch < num_channels) {
        trace.sample_times.push_back(r.num("t", 0.0));
        const JVal& value = v->arr[unmarked_ch];
        if (value.type != JVal::Type::kNum) {
          r.fail("sample values must be numbers");
        }
        trace.unmarked.push_back(value.num);
      }
    }
    // Unknown record types are skipped: newer writers stay readable.
  }
  if (!saw_meta) {
    throw std::runtime_error(
        "not a hetsched trace: no {\"type\":\"meta\"} record found");
  }
  return analyze_impl(trace, std::move(meta), options);
}

// ---------------------------------------------------------------------
// Report writers.

void write_analysis_json(std::ostream& out, const TraceAnalysis& analysis) {
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "hetsched-analysis/1");
  json.key("run");
  json.begin_object();
  json.field("engine", analysis.meta.engine);
  json.field("kernel", analysis.meta.kernel);
  json.field("strategy", analysis.meta.strategy);
  json.field("n", static_cast<std::uint64_t>(analysis.meta.n));
  json.field("p", static_cast<std::uint64_t>(analysis.meta.p));
  json.field("makespan", analysis.meta.makespan);
  json.field("dropped_events", analysis.meta.dropped_events);
  json.field("requeued_tasks", analysis.meta.requeued_tasks);
  json.field("crashed_workers", analysis.meta.crashed_workers);
  json.field("link_busy_time", analysis.meta.link_busy_time);
  if (analysis.meta.graph_critical_path >= 0.0) {
    json.field("graph_critical_path", analysis.meta.graph_critical_path);
  }
  if (analysis.meta.makespan_lower_bound >= 0.0) {
    json.field("makespan_lower_bound", analysis.meta.makespan_lower_bound);
  }
  json.end_object();

  json.key("workers");
  json.begin_array();
  for (const auto& row : analysis.workers) {
    json.begin_object();
    json.field("worker", static_cast<std::uint64_t>(row.worker));
    json.field("tasks", row.tasks);
    json.field("blocks", row.blocks);
    json.field("busy", row.busy);
    json.field("comm", row.comm);
    json.field("idle", row.idle);
    json.field("tail_idle", row.tail_idle);
    json.field("starved", row.starved);
    json.field("finish", row.finish);
    json.field("exact", row.exact);
    json.end_object();
  }
  json.end_array();

  json.key("phases");
  json.begin_array();
  for (const auto& seg : analysis.phases) {
    json.begin_object();
    json.field("name", seg.name);
    json.field("begin", seg.begin);
    json.field("end", seg.end);
    json.field("tasks", seg.tasks);
    json.end_object();
  }
  json.end_array();

  json.key("critical_path");
  json.begin_object();
  json.field("hops", static_cast<std::uint64_t>(analysis.critical_path.size()));
  json.field("compute", analysis.critical_compute);
  json.field("wait", analysis.critical_wait);
  json.key("chain");
  json.begin_array();
  for (const auto& hop : analysis.critical_path) {
    json.begin_object();
    json.field("worker", static_cast<std::uint64_t>(hop.worker));
    json.field("task", hop.task);
    json.field("start", hop.start);
    json.field("finish", hop.finish);
    json.field("wait", hop.wait);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.key("ode");
  json.begin_object();
  json.field("available", analysis.ode_available);
  if (analysis.ode_available) {
    json.field("max_divergence", analysis.ode_max_divergence);
    json.field("integrated_divergence", analysis.ode_integrated_divergence);
    json.field("alarm_threshold", analysis.ode_alarm_threshold);
    json.field("alarm", analysis.ode_alarm);
  }
  json.end_object();

  json.key("warnings");
  json.begin_array();
  for (const auto& warning : analysis.warnings) json.value(warning);
  json.end_array();
  json.end_object();
  out << '\n';
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

}  // namespace

void write_analysis_markdown(std::ostream& out,
                             const TraceAnalysis& analysis) {
  const TraceMeta& meta = analysis.meta;
  out << "# Trace analysis\n\n";
  out << "- engine: `" << meta.engine << "`";
  if (!meta.kernel.empty()) out << ", kernel: `" << meta.kernel << "`";
  if (!meta.strategy.empty()) out << ", strategy: `" << meta.strategy << "`";
  out << "\n- n: " << meta.n << ", p: " << meta.p
      << ", makespan: " << fmt(meta.makespan) << "\n";
  if (meta.makespan_lower_bound >= 0.0 && meta.makespan > 0.0) {
    out << "- makespan lower bound: " << fmt(meta.makespan_lower_bound)
        << " (ratio " << fmt(meta.makespan / meta.makespan_lower_bound)
        << ")\n";
  }
  out << "\n";

  for (const auto& warning : analysis.warnings) {
    out << "> **Warning:** " << warning << "\n\n";
  }

  out << "## Per-worker time attribution\n\n";
  out << "| worker | tasks | blocks | busy | comm | idle | tail idle | "
         "starved | finish |\n";
  out << "|---|---|---|---|---|---|---|---|---|\n";
  for (const auto& row : analysis.workers) {
    out << "| " << row.worker << (row.exact ? "" : "*") << " | " << row.tasks
        << " | " << row.blocks << " | " << fmt(row.busy) << " | "
        << fmt(row.comm) << " | " << fmt(row.idle) << " | "
        << fmt(row.tail_idle) << " | " << fmt(row.starved) << " | "
        << fmt(row.finish) << " |\n";
  }
  bool any_estimated = false;
  for (const auto& row : analysis.workers) any_estimated |= !row.exact;
  if (any_estimated) {
    out << "\n\\* busy/finish reconstructed from completion gaps (no exact "
           "engine stats in trace). comm is volume / bandwidth and overlaps "
           "compute in the flat model.\n";
  } else {
    out << "\ncomm is volume / bandwidth and overlaps compute in the flat "
           "model.\n";
  }
  out << "\n";

  out << "## Phase timeline\n\n";
  out << "| phase | begin | end | span | tasks |\n";
  out << "|---|---|---|---|---|\n";
  for (const auto& seg : analysis.phases) {
    out << "| " << seg.name << " | " << fmt(seg.begin) << " | " << fmt(seg.end)
        << " | " << fmt(seg.end - seg.begin) << " | " << seg.tasks << " |\n";
  }
  out << "\n";

  out << "## Critical path\n\n";
  if (analysis.critical_path.empty()) {
    out << "No completions recorded.\n\n";
  } else {
    out << "- hops: " << analysis.critical_path.size()
        << ", compute: " << fmt(analysis.critical_compute)
        << ", wait: " << fmt(analysis.critical_wait) << " ("
        << fmt(meta.makespan > 0.0
                   ? 100.0 * analysis.critical_wait / meta.makespan
                   : 0.0)
        << "% of makespan)\n";
    // The full chain can be thousands of hops; show the waits, which
    // are the actionable part, plus the endpoints.
    out << "- starts at task " << analysis.critical_path.front().task
        << " on worker " << analysis.critical_path.front().worker
        << ", ends at task " << analysis.critical_path.back().task
        << " on worker " << analysis.critical_path.back().worker << "\n";
    std::size_t waits = 0;
    for (const auto& hop : analysis.critical_path) {
      if (hop.wait > 0.0) ++waits;
    }
    if (waits > 0) {
      out << "\n| wait before task | worker | start | wait |\n";
      out << "|---|---|---|---|\n";
      std::size_t shown = 0;
      for (const auto& hop : analysis.critical_path) {
        if (hop.wait <= 0.0) continue;
        out << "| " << hop.task << " | " << hop.worker << " | "
            << fmt(hop.start) << " | " << fmt(hop.wait) << " |\n";
        if (++shown == 20) {
          out << "| ... | | | (" << (waits - shown) << " more) |\n";
          break;
        }
      }
    }
    out << "\n";
  }

  out << "## ODE divergence\n\n";
  if (!analysis.ode_available) {
    out << "Not available (needs an unmarked_fraction sample series plus "
           "kernel/speeds/n in the trace meta).\n";
  } else {
    out << "- max |sim - model|: " << fmt(analysis.ode_max_divergence)
        << " (threshold " << fmt(analysis.ode_alarm_threshold) << ")\n";
    out << "- integrated |sim - model| dt: "
        << fmt(analysis.ode_integrated_divergence) << "\n";
    out << "- verdict: "
        << (analysis.ode_alarm ? "**ALARM** - simulated trajectory diverges "
                                 "from the ODE analysis"
                               : "OK - simulated trajectory tracks the ODE "
                                 "analysis")
        << "\n";
  }
}

}  // namespace hetsched
