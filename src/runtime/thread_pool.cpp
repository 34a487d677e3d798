#include "runtime/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hetsched {

void run_workers(std::uint32_t workers,
                 const std::function<void(std::uint32_t)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(workers);
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (std::uint32_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        fn(w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_for_dynamic(std::uint32_t workers, std::uint64_t count,
                          const std::function<void(std::uint64_t)>& body) {
  if (count == 0) return;
  if (count < workers) workers = static_cast<std::uint32_t>(count);
  if (workers <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  run_workers(workers, [&](std::uint32_t) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  });
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

std::atomic<std::uint32_t> g_budget_capacity{0};  // 0 = hardware default
std::atomic<std::uint32_t> g_budget_in_use{0};

std::uint32_t hardware_capacity() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::uint32_t>(hw) : 1u;
}

}  // namespace

std::uint32_t parallel_budget_capacity() noexcept {
  const std::uint32_t cap = g_budget_capacity.load(std::memory_order_relaxed);
  return cap > 0 ? cap : hardware_capacity();
}

void set_parallel_budget_capacity(std::uint32_t capacity) noexcept {
  g_budget_capacity.store(capacity, std::memory_order_relaxed);
}

std::uint32_t parallel_budget_in_use() noexcept {
  return g_budget_in_use.load(std::memory_order_relaxed);
}

ParallelLease::ParallelLease(std::uint32_t want) noexcept {
  if (want == 0) return;
  const std::uint32_t capacity = parallel_budget_capacity();
  std::uint32_t in_use = g_budget_in_use.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t available = in_use < capacity ? capacity - in_use : 0;
    const std::uint32_t grant = want < available ? want : available;
    if (grant == 0) return;
    if (g_budget_in_use.compare_exchange_weak(in_use, in_use + grant,
                                              std::memory_order_relaxed)) {
      granted_ = grant;
      return;
    }
  }
}

ParallelLease::~ParallelLease() {
  if (granted_ > 0) {
    g_budget_in_use.fetch_sub(granted_, std::memory_order_relaxed);
  }
}

}  // namespace hetsched
