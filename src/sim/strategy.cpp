#include "sim/strategy.hpp"

#include "sim/trace.hpp"

namespace hetsched {

void Strategy::notify_phase_switch(std::uint64_t tasks_remaining) {
  if (!has_observer()) return;
  obs_sink_->on_phase_switch(*obs_clock_, tasks_remaining);
}

void Strategy::notify_fallback(std::uint64_t tasks_remaining) {
  if (!has_observer()) return;
  obs_sink_->on_fallback(*obs_clock_, tasks_remaining);
}

}  // namespace hetsched
