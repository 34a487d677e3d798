// The master-side scheduling policy interface.
//
// A Strategy is the single abstraction shared by the discrete-event
// simulator (src/sim) and the real thread-pool runtime (src/runtime):
// given a work request from worker k it decides which data blocks to
// ship and which tasks to allocate. All eight strategies of the paper
// (Random/Sorted/Dynamic/Dynamic2Phases x Outer/Matrix) implement it.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hetsched {

/// Identifies a unit task. Encoding is kernel-specific:
/// outer product: id = i * N + j; matrix multiply: id = (i*N + j)*N + k.
using TaskId = std::uint64_t;

/// Which operand a transferred block belongs to.
enum class Operand : std::uint8_t {
  kVecA,   // outer product: block a_i          (index i, col unused)
  kVecB,   // outer product: block b_j
  kMatA,   // matrix multiply: block A_{i,k}
  kMatB,   // matrix multiply: block B_{k,j}
  kMatC,   // matrix multiply: block C_{i,j} (result, shipped back once)
};

/// One block transfer between master and worker. Every BlockRef counts
/// as one unit of communication volume regardless of direction — the
/// paper measures total volume only.
struct BlockRef {
  Operand operand;
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const BlockRef&, const BlockRef&) = default;
};

/// A run of allocated tasks, encoded at the granularity the word-parallel
/// frontiers discover them: one 64-bit occupancy word over an arithmetic
/// progression of task ids. Bit b set means task `first + b * stride` is
/// part of the run (stride 1 = a row segment, stride N = an outer column
/// or matmul k-face segment). This is the word-granular generalization of
/// a {first_id, count, stride} run: because enabled-task masks are sparse
/// (a mean matmul request touches ~7 of 40 bits per word), forcing
/// maximal consecutive runs would decay to per-task entries, while one
/// entry per nonzero mask word keeps the request output at a handful of
/// 24-byte records. Expansion order is ascending bit index, which is
/// exactly the legacy per-task push order of the frontier scans.
struct TaskRun {
  TaskId first = 0;            // task id at bit 0 of the occupancy word
  std::uint64_t bits = 0;      // bit b set => task first + b * stride
  std::uint64_t stride = 1;    // id distance between adjacent bits
  std::uint32_t count = 0;     // popcount(bits), cached for bookkeeping

  /// Calls fn(TaskId) for every set bit, ascending.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::uint64_t rest = bits;
    while (rest != 0) {
      fn(first + static_cast<TaskId>(std::countr_zero(rest)) * stride);
      rest &= rest - 1;
    }
  }

  friend bool operator==(const TaskRun&, const TaskRun&) = default;
};

/// The master's answer to one work request. Engines own one instance
/// as a scratch buffer reused across requests: clear() drops the
/// contents but keeps all three vectors' heap blocks, which is what
/// makes the steady-state request loop allocation-free.
///
/// Blocks travel as scalar BlockRefs. Tasks travel on two channels: the
/// scalar `tasks` vector (random service, single-task grants) and the
/// `task_runs` vector (the word-parallel data-aware frontiers, which
/// discover enabled tasks one mask word at a time). A producer uses one
/// task channel per request, never both; the iteration facade visits
/// scalars first, then runs, which therefore always matches the legacy
/// per-task order. Consumers that only need totals use task_count() /
/// block_count() and never expand.
struct Assignment {
  std::vector<BlockRef> blocks;     // transfers charged to this request
  std::vector<TaskId> tasks;        // tasks the worker must now compute
  std::vector<TaskRun> task_runs;   // run-encoded task grants

  bool empty() const noexcept {
    return blocks.empty() && tasks.empty() && task_runs.empty();
  }

  void clear() noexcept {
    blocks.clear();
    tasks.clear();
    task_runs.clear();
  }

  /// Total tasks granted, across both channels.
  std::uint64_t task_count() const noexcept {
    std::uint64_t n = tasks.size();
    for (const TaskRun& r : task_runs) n += r.count;
    return n;
  }

  /// Total blocks transferred.
  std::uint64_t block_count() const noexcept { return blocks.size(); }

  /// Calls fn(TaskId) for every granted task: scalars first, then runs
  /// in order, each expanded ascending — the legacy per-task order.
  template <typename Fn>
  void for_each_task(Fn&& fn) const {
    for (const TaskId t : tasks) fn(t);
    for (const TaskRun& r : task_runs) r.for_each(fn);
  }

  /// Calls fn(BlockRef) for every transferred block.
  template <typename Fn>
  void for_each_block(Fn&& fn) const {
    for (const BlockRef& b : blocks) fn(b);
  }

  /// Expands the task runs into the scalar vector (appended in facade
  /// order) and clears them. Used by the allocating wrapper and by rare
  /// engine paths (crash/straggler splits) that need indexed access;
  /// hot paths stay in run space.
  void flatten() {
    for (const TaskRun& r : task_runs) {
      r.for_each([this](TaskId t) { tasks.push_back(t); });
    }
    task_runs.clear();
  }
};

class TraceSink;  // sim/trace.hpp; broken include cycle (TraceSink uses Assignment)

class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string name() const = 0;

  /// Total number of unit tasks in the kernel instance.
  virtual std::uint64_t total_tasks() const = 0;

  /// Number of tasks not yet allocated ("marked") to any worker.
  virtual std::uint64_t unassigned_tasks() const = 0;

  /// Handles a work request from worker `worker`, writing the answer
  /// into the caller-owned scratch `out` (the implementation clears it
  /// first; vector capacity is retained across calls, so a warmed-up
  /// request loop performs no heap allocation). Returns false when the
  /// worker can never receive work again (it retires; `out` is left
  /// cleared); the answer may carry blocks but zero tasks (a data-aware
  /// step that found all enabled tasks already processed), in which
  /// case the caller requests again immediately — the paper's workers
  /// are demand-driven and idle only when the master has nothing left.
  ///
  /// Implementations must add `using Strategy::on_request;` so the
  /// allocating convenience overload below stays visible.
  virtual bool on_request(std::uint32_t worker, Assignment& out) = 0;

  /// Allocating convenience wrapper over the scratch form (tests,
  /// tools, one-shot callers). Flattens run-encoded grants into the
  /// scalar vectors so callers see the plain per-task/per-block view.
  std::optional<Assignment> on_request(std::uint32_t worker) {
    Assignment out;
    if (!on_request(worker, out)) return std::nullopt;
    out.flatten();
    return out;
  }

  /// Rewinds the strategy to its freshly-constructed state for a new
  /// replication with the given RNG seed, reusing already-allocated
  /// storage (pools and bitsets are refilled in place, with no
  /// allocation). Returns false when the strategy does not support
  /// in-place reuse — the caller must construct a fresh instance
  /// instead. A true return must leave the strategy
  /// bit-identical to `make_*_strategy(...)` with the same seed.
  virtual bool reset(std::uint64_t seed) {
    (void)seed;
    return false;
  }

  /// Number of workers the strategy was configured for.
  virtual std::uint32_t workers() const = 0;

  /// Returns allocated-but-uncomputed tasks to the master's pool after
  /// a worker failure, so they can be served again. Returns false when
  /// the strategy does not support requeueing (the engine then refuses
  /// failure injection for it). The failed worker's cached blocks are
  /// simply lost — a surviving worker re-assigned one of these tasks is
  /// charged the transfers its own cache misses, exactly as usual.
  virtual bool requeue(const std::vector<TaskId>& tasks) {
    (void)tasks;
    return false;
  }

  // -- Observability -------------------------------------------------
  // The probes below let the observability layer (src/obs) sample the
  // quantities the paper's ODE model predicts without knowing the
  // concrete strategy type. Defaults mean "not applicable".

  /// Fraction in [0, 1] of each input dimension worker `worker` has
  /// learned (the analysis's x_k: |I|/N for the outer product, y/N for
  /// the matrix product). Negative when the strategy has no such
  /// notion (pointwise strategies, static partitions, ...).
  virtual double knowledge_fraction(std::uint32_t worker) const {
    (void)worker;
    return -1.0;
  }

  /// 1 while serving data-aware requests, 2 after the random-fallback
  /// switch of a two-phase strategy; 0 when the strategy has no phase
  /// structure.
  virtual int current_phase() const { return 0; }

  /// Attaches an observation sink and a simulated clock owned by the
  /// driving engine (valid for the duration of the run; the engine
  /// detaches both on exit). Strategies publish strategy-level events
  /// — phase switches and fallbacks — through the sink.
  void attach_observer(TraceSink* sink, const double* clock) noexcept {
    obs_sink_ = sink;
    obs_clock_ = clock;
  }

 protected:
  bool has_observer() const noexcept {
    return obs_sink_ != nullptr && obs_clock_ != nullptr;
  }
  /// Emits on_phase_switch at the current simulated time.
  void notify_phase_switch(std::uint64_t tasks_remaining);
  /// Emits on_fallback at the current simulated time (a data-aware
  /// strategy switching to random service outside the planned phase-2
  /// regime; see sim/trace.hpp).
  void notify_fallback(std::uint64_t tasks_remaining);

 private:
  TraceSink* obs_sink_ = nullptr;
  const double* obs_clock_ = nullptr;
};

}  // namespace hetsched
