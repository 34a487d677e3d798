// Shared plumbing for the figure-reproduction harnesses.
//
// Every binary prints (a) a provenance header describing the paper
// artifact it regenerates and the parameters used, and (b) the series
// as CSV rows, so output can be diffed run-to-run and plotted directly.
#pragma once

#include <cstdint>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/figure.hpp"

namespace hetsched::bench {

inline void print_header(const std::string& figure, const std::string& what,
                         const std::string& params) {
  std::cout << "# " << figure << ": " << what << "\n";
  std::cout << "# " << params << "\n";
}

/// Narrow-checked CLI conversion: negative or >= 2^32 values must fail
/// loudly instead of wrapping into bogus p/n grids.
inline std::vector<std::uint32_t> to_u32(const std::vector<std::int64_t>& v) {
  std::vector<std::uint32_t> out;
  out.reserve(v.size());
  for (const auto x : v) {
    if (x < 0 ||
        x > static_cast<std::int64_t>(
                std::numeric_limits<std::uint32_t>::max())) {
      throw std::invalid_argument(
          "bench::to_u32: value out of uint32 range: " + std::to_string(x));
    }
    out.push_back(static_cast<std::uint32_t>(x));
  }
  return out;
}

/// The worker-count grid used by the paper's p-sweeps (Figures 1-10).
inline std::vector<std::int64_t> default_p_grid() {
  return {10, 20, 50, 100, 150, 200, 250, 300};
}

}  // namespace hetsched::bench
