// Worker-thread helpers shared by the real executor and the parallel
// replication engine: a join-all thread spawner, a dynamic
// (atomic-index) parallel for, and a process-wide parallelism budget so
// nested parallel regions (a campaign over experiments over reps)
// compose without oversubscribing the machine.
#pragma once

#include <cstdint>
#include <functional>

namespace hetsched {

/// Runs fn(worker_id) on `workers` dedicated threads and joins them
/// all. Exceptions thrown by any worker are rethrown (the first one)
/// after all threads have joined.
void run_workers(std::uint32_t workers,
                 const std::function<void(std::uint32_t)>& fn);

/// Runs body(item) for items 0..count-1 on up to `workers` threads.
/// Items are claimed from a shared atomic index, so a slow item never
/// delays the items behind it (no head-of-line blocking) and no
/// completion-order bookkeeping is needed. After a body throws, no
/// further items are claimed; the first exception is rethrown once all
/// workers have joined. With workers <= 1 (or count <= 1) the loop runs
/// inline on the calling thread.
void parallel_for_dynamic(std::uint32_t workers, std::uint64_t count,
                          const std::function<void(std::uint64_t)>& body);

/// Total worker slots that ParallelLease holders may occupy at once.
/// Defaults to std::thread::hardware_concurrency() (minimum 1).
std::uint32_t parallel_budget_capacity() noexcept;

/// Overrides the budget capacity; 0 restores the hardware default.
/// Intended for tests and benchmark harnesses.
void set_parallel_budget_capacity(std::uint32_t capacity) noexcept;

/// Slots currently held by live ParallelLease objects.
std::uint32_t parallel_budget_in_use() noexcept;

/// RAII reservation against the parallelism budget. Grants
/// min(want, capacity - in_use) slots — possibly zero, in which case
/// the caller should run serially. The grant is released on
/// destruction.
class ParallelLease {
 public:
  explicit ParallelLease(std::uint32_t want) noexcept;
  ~ParallelLease();

  ParallelLease(const ParallelLease&) = delete;
  ParallelLease& operator=(const ParallelLease&) = delete;

  std::uint32_t granted() const noexcept { return granted_; }

 private:
  std::uint32_t granted_ = 0;
};

}  // namespace hetsched
