#include "matmul/matmul_problem.hpp"

#include <stdexcept>

namespace hetsched {

void validate(const MatmulConfig& config) {
  if (config.n == 0) {
    throw std::invalid_argument("MatmulConfig: n must be at least 1");
  }
  // n^3 task ids live in the master pool. TaskPool's compact layout
  // (~1.5 bits/task past 2^25 ids) holds the paper's largest instance,
  // N/l = 1000 (10^9 tasks), in ~180 MB; the cap keeps the pool and
  // the per-worker n^2-bit ownership sets comfortably under 2 GiB.
  if (config.n > MatmulConfig::kMaxN) {
    throw std::invalid_argument("MatmulConfig: n > 1024 not supported");
  }
}

}  // namespace hetsched
