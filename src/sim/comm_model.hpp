// A concrete communication model for the master's uplink.
//
// The paper *assumes* communication/computation overlap ("uploading a
// few blocks in advance... determining this threshold would require to
// introduce a communication model and a topology, what is out of the
// scope of this paper") and cites empirical evidence that a small
// prefetch depth suffices. This model makes the assumption testable:
// a star topology where every block crosses the master's serial link
// at a fixed bandwidth plus a per-message latency, and workers prefetch
// work whenever fewer than `lookahead` tasks are queued locally.
//
// CommModel::free() is the paper's assumption itself: an infinitely
// fast link with no latency, on which transfers cost volume but no
// time. The engine recognizes it (is_free) and delivers assignments
// without link events.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

namespace hetsched {

struct CommModel {
  /// Blocks per time unit through the master's (serial) uplink. The
  /// time unit is the same as the engine's: one unit-speed worker
  /// computes one task per time unit.
  double bandwidth = 100.0;
  /// Fixed per-message cost (request round-trip, protocol overhead).
  double latency = 0.0;

  /// The fully overlapped link of the paper's model.
  static constexpr CommModel free() noexcept {
    return CommModel{std::numeric_limits<double>::infinity(), 0.0};
  }
  bool is_free() const noexcept {
    return bandwidth == std::numeric_limits<double>::infinity() &&
           latency == 0.0;
  }

  /// Bandwidth may be +inf (the free link); latency must be finite.
  void validate() const {
    if (!(bandwidth > 0.0)) {
      throw std::invalid_argument("CommModel: bandwidth must be positive");
    }
    if (!(latency >= 0.0) || !std::isfinite(latency)) {
      throw std::invalid_argument(
          "CommModel: latency must be finite and non-negative");
    }
  }

  /// Link occupancy of one message carrying `blocks` blocks.
  double transfer_time(std::size_t blocks) const {
    return latency + static_cast<double>(blocks) / bandwidth;
  }
};

}  // namespace hetsched
