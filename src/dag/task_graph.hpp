// A task graph with data footprints: the substrate for extending the
// paper's data-aware dynamic scheduling to kernels *with* dependencies
// (the conclusion names tiled factorizations as the natural next step;
// tiled Cholesky is the one built here).
//
// Each task reads a set of tiles, writes at most one tile (`output`,
// kNoTile when it writes nothing; an in-place update lists the tile
// among its inputs too), and has a work weight in the same unit as the
// engine's (a unit-speed worker performs one unit of work per time
// unit).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hetsched {

using TileId = std::uint32_t;
using DagTaskId = std::uint32_t;

inline constexpr TileId kNoTile = std::numeric_limits<TileId>::max();

struct DagTask {
  std::string kind;                // kernel name (POTRF, GEMM, ...)
  double work = 1.0;               // relative cost
  std::vector<TileId> inputs;      // tiles read
  TileId output = kNoTile;         // tile written, or kNoTile
  std::vector<DagTaskId> deps;     // predecessor task ids
};

class TaskGraph {
 public:
  /// Registers a tile and returns its id.
  TileId add_tile();

  /// Adds a task; dependency ids must refer to existing tasks, tile ids
  /// to existing tiles. Returns the task id.
  DagTaskId add_task(DagTask task);

  std::size_t num_tasks() const noexcept { return tasks_.size(); }
  std::size_t num_tiles() const noexcept { return num_tiles_; }
  const DagTask& task(DagTaskId id) const { return tasks_[id]; }

  /// Successor adjacency (inverse of deps), built lazily and cached.
  const std::vector<std::vector<DagTaskId>>& successors() const;

  /// Verifies the graph is a DAG with valid references; throws
  /// std::invalid_argument otherwise.
  void validate() const;

  /// Sum of all task works.
  double total_work() const;

  /// Bottom levels: b(t) = work(t) + max over successors of b(s);
  /// the classic critical-path priority.
  std::vector<double> bottom_levels() const;

  /// Length of the critical path (max bottom level).
  double critical_path() const;

  /// Number of tasks of each kind, for structural checks.
  std::size_t count_kind(const std::string& kind) const;

 private:
  std::vector<DagTask> tasks_;
  std::size_t num_tiles_ = 0;
  mutable std::vector<std::vector<DagTaskId>> successors_;
  mutable bool successors_built_ = false;
};

}  // namespace hetsched
