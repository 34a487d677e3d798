#include "dag/random_graph.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace hetsched {

TaskGraph build_random_graph(const RandomGraphConfig& config,
                             std::uint64_t seed) {
  if (config.layers == 0 || config.tasks_per_layer == 0 || config.tiles == 0 ||
      config.max_inputs == 0) {
    throw std::invalid_argument("build_random_graph: degenerate config");
  }
  if (!(config.work_lo > 0.0) || config.work_hi < config.work_lo) {
    throw std::invalid_argument("build_random_graph: bad work range");
  }
  if (config.write_probability < 0.0 || config.write_probability > 1.0) {
    throw std::invalid_argument("build_random_graph: bad write probability");
  }

  Rng rng(derive_stream(seed, "random_graph"));
  TaskGraph g;
  for (std::uint32_t t = 0; t < config.tiles; ++t) g.add_tile();

  constexpr DagTaskId kNoWriter = std::numeric_limits<DagTaskId>::max();
  std::vector<DagTaskId> last_writer(config.tiles, kNoWriter);

  for (std::uint32_t layer = 0; layer < config.layers; ++layer) {
    const std::uint32_t count =
        1 + static_cast<std::uint32_t>(rng.next_below(config.tasks_per_layer));
    // Snapshot the writers at layer entry so tasks inside a layer are
    // mutually independent (their deps point at earlier layers only).
    const std::vector<DagTaskId> writers_before = last_writer;
    std::vector<std::pair<TileId, DagTaskId>> layer_writes;

    for (std::uint32_t t = 0; t < count; ++t) {
      DagTask task;
      task.kind = "L";
      task.kind += std::to_string(layer);
      task.work = rng.uniform(config.work_lo, config.work_hi);

      const std::uint32_t n_inputs =
          1 + static_cast<std::uint32_t>(rng.next_below(config.max_inputs));
      for (std::uint32_t i = 0; i < n_inputs; ++i) {
        const auto tile =
            static_cast<TileId>(rng.next_below(config.tiles));
        if (std::find(task.inputs.begin(), task.inputs.end(), tile) !=
            task.inputs.end()) {
          continue;  // skip duplicate draws
        }
        task.inputs.push_back(tile);
        if (writers_before[tile] != kNoWriter) {
          task.deps.push_back(writers_before[tile]);
        }
      }
      std::sort(task.deps.begin(), task.deps.end());
      task.deps.erase(std::unique(task.deps.begin(), task.deps.end()),
                      task.deps.end());

      if (rng.bernoulli(config.write_probability) && !task.inputs.empty()) {
        // Write one of the inputs (in-place update, the common case in
        // the factorizations); also depend on its pre-layer writer.
        const TileId out = task.inputs[rng.next_below(task.inputs.size())];
        task.output = out;
      }

      const DagTaskId id = g.add_task(std::move(task));
      if (g.task(id).output != kNoTile) {
        layer_writes.push_back({g.task(id).output, id});
      }
    }
    // Publish this layer's writes; later writes to the same tile win
    // (arbitrary but deterministic).
    for (const auto& [tile, id] : layer_writes) last_writer[tile] = id;
  }
  g.validate();
  return g;
}

}  // namespace hetsched
