#include "host_probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <vector>

#include "workload.hpp"

namespace e2e {

namespace {

constexpr std::uint32_t kPool = 1u << 20;  // task ids: 4 MiB
constexpr std::uint32_t kWorkers = 100;
constexpr std::uint32_t kWordsPerWorker = 2 * 1024 / 64;  // row + column bits
constexpr int kSteps = 20000;                             // ~3 ms a burst
constexpr auto kPeriod = std::chrono::milliseconds(25);

class ReferenceKernel {
 public:
  ReferenceKernel() : pool_(kPool), owned_(kWorkers * kWordsPerWorker) {
    for (std::uint32_t i = 0; i < kPool; ++i) pool_[i] = i;
    for (std::uint32_t w = 0; w < kWorkers; ++w) heap_.push_back({0.0, w});
  }

  /// Runs kSteps steps and returns the time of one, in ns.
  double burst() {
    const double t0 = now_s();
    for (int i = 0; i < kSteps; ++i) step();
    return 1e9 * (now_s() - t0) / kSteps;
  }

 private:
  struct Worker {
    double finish = 0.0;
    std::uint32_t id = 0;
  };
  static bool later(const Worker& a, const Worker& b) { return a.finish > b.finish; }

  // The worker that finishes first draws a random task and records the
  // row and column it now holds. The drawn slot is swapped with a
  // rotating cursor, so the pool keeps its size and stays a random
  // permutation: every burst touches the same 4 MiB at random.
  void step() {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Worker& w = heap_.back();
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const auto slot = static_cast<std::uint32_t>(rng_ >> 44);  // 20 bits
    const std::uint32_t task = pool_[slot];
    std::swap(pool_[slot], pool_[cursor_]);
    cursor_ = (cursor_ + 1) % kPool;
    std::uint64_t* bits = &owned_[w.id * kWordsPerWorker];
    const std::uint32_t row = task >> 10, col = task % 1024;
    bits[row / 64] |= 1ull << (row % 64);
    bits[16 + col / 64] |= 1ull << (col % 64);
    w.finish += 1.0 + w.id % 7;
    std::push_heap(heap_.begin(), heap_.end(), later);
  }

  std::vector<std::uint32_t> pool_;
  std::vector<std::uint64_t> owned_;
  std::vector<Worker> heap_;
  std::uint32_t cursor_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

}  // namespace

HostProbe::HostProbe() : sampler_([this] { sample(); }) {}

HostProbe::~HostProbe() { join(); }

void HostProbe::join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

double HostProbe::stop() {
  join();
  if (error_) std::rethrow_exception(error_);
  // The sampler has ended, so the bursts are ours to reorder.
  const auto mid = burst_ns_.begin() + static_cast<std::ptrdiff_t>(burst_ns_.size() / 2);
  std::nth_element(burst_ns_.begin(), mid, burst_ns_.end());
  return *mid;
}

void HostProbe::sample() {
  try {
    ReferenceKernel kernel;
    std::unique_lock<std::mutex> lock(mu_);
    do {
      lock.unlock();
      const double ns = kernel.burst();
      lock.lock();
      burst_ns_.push_back(ns);
    } while (!wake_.wait_for(lock, kPeriod, [this] { return stopping_; }));
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = std::current_exception();
  }
}

}  // namespace e2e
