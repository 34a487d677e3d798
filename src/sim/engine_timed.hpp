// The comm-timed spelling of simulate(): a config whose defaults are a
// 100-blocks-per-time-unit uplink and a lookahead of 4, and a wrapper
// that runs it through the one engine (sim/engine.hpp).
//
// Both exist only because bench/e2e/traced.cpp, the end-to-end
// benchmark's traced pass, calls them; everything else builds a
// SimConfig and calls simulate().
#pragma once

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "platform/speed_model.hpp"
#include "sim/comm_model.hpp"
#include "sim/engine.hpp"
#include "sim/strategy.hpp"
#include "sim/trace.hpp"

namespace hetsched {

struct TimedSimConfig {
  std::uint64_t seed = 1;
  CommModel comm{};
  std::uint32_t lookahead = 4;
  PerturbationModel perturbation{};
  std::vector<WorkerFault> faults{};
};

inline SimResult simulate_timed(Strategy& strategy, const Platform& platform,
                                const TimedSimConfig& config = {},
                                TraceSink* trace = nullptr) {
  SimConfig sim_config;
  sim_config.seed = config.seed;
  sim_config.comm = config.comm;
  sim_config.lookahead = config.lookahead;
  sim_config.perturbation = config.perturbation;
  sim_config.faults = config.faults;
  return simulate(strategy, platform, sim_config, trace);
}

}  // namespace hetsched
