// Shared plumbing for the figure-reproduction harnesses.
//
// Every binary prints (a) a provenance header describing the paper
// artifact it regenerates and the parameters used, and (b) the series
// as CSV rows, so output can be diffed run-to-run and plotted directly.
#pragma once

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/figure.hpp"
#include "spec/compile.hpp"
#include "spec/overlay.hpp"

namespace hetsched::bench {

inline void print_header(const std::string& figure, const std::string& what,
                         const std::string& params) {
  std::cout << "# " << figure << ": " << what << "\n";
  std::cout << "# " << params << "\n";
}

/// Loads bench/figures/<name>.hspec, the one description of a figure's
/// points, with the CLI's flag overlay on top (--n, --p, --reps,
/// --seed, ...). A `list` platform is one fixed draw: it must name one
/// speed per worker, or the list would cycle. The spec benches read no
/// other flag, so any flag the overlay did not read is rejected here.
inline ScenarioSpec load_figure_spec(const std::string& name,
                                     const CliArgs& args) {
  ScenarioSpec spec =
      load_spec(std::string(HETSCHED_FIGURES_DIR) + "/" + name + ".hspec",
                args, batch_spec_defaults());
  if (spec.platform->kind == SpeedSpec::Kind::kList) {
    for (const std::uint32_t p : spec.ps) {
      if (p != spec.platform->values.size()) {
        throw std::invalid_argument(
            "--p: " + name + " runs on one fixed draw of " +
            std::to_string(spec.platform->values.size()) + " speeds, got " +
            std::to_string(p));
      }
    }
  }
  args.reject_unread();
  return spec;
}

}  // namespace hetsched::bench

/// A bench's body. bench/bench_main.cpp, linked into every bench, holds
/// the one `main`: it parses the flags and runs the body the way
/// hetsched_cli runs a command, so an error (a bad flag, a spec the
/// compiler rejects) prints `error: <what>` and exits 1.
int bench_main(const hetsched::CliArgs& args);
