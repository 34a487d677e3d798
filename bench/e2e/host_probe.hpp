// Host-speed reference for the end-to-end benchmark's wall time.
//
// The simulator is bound by memory latency, and on a shared host the
// other tenants' load moves it a lot: fig05's median trial took 2.7 s in
// one run and 4.5 s in another ten minutes later on the 4-core Xeon VM
// the README numbers come from.
// A HostProbe measures that load while the trials run: a sampler thread
// runs a fixed reference kernel in short bursts on a spare core, and the
// median burst is the host's speed for this kind of work at that time.
// wall_norm_s = wall_s x kReferenceStepNs / median step time.
//
// The kernel is the flat engine's hot loop in miniature (a heap of
// worker finish times, a random draw from a 4 MiB task pool, a bit per
// row and column the worker now holds) and lives here, not in src/, so
// no change to the library can move it.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace e2e {

/// The step time wall_norm_s is scaled to: about the kernel's median on
/// the reference host when it is quiet, so the two times read alike.
inline constexpr double kReferenceStepNs = 150.0;

class HostProbe {
 public:
  /// Starts sampling: one burst at once, then one every 25 ms.
  HostProbe();
  /// Stops sampling if stop() was not called.
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Stops sampling and returns the median time of one kernel step in
  /// ns over all bursts (at least one). Rethrows a sampler failure.
  double stop();

 private:
  void sample();
  void join();

  std::mutex mu_;
  std::condition_variable wake_;
  // Guarded by mu_ while the sampler runs.
  bool stopping_ = false;
  std::vector<double> burst_ns_;  // one per burst: ns per step
  std::exception_ptr error_;
  std::thread sampler_;  // last: it uses the members above
};

}  // namespace e2e
