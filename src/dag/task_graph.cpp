#include "dag/task_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace hetsched {

TileId TaskGraph::add_tile() {
  successors_built_ = false;
  return static_cast<TileId>(num_tiles_++);
}

DagTaskId TaskGraph::add_task(DagTask task) {
  const auto id = static_cast<DagTaskId>(tasks_.size());
  for (const DagTaskId dep : task.deps) {
    if (dep >= id) {
      throw std::invalid_argument(
          "TaskGraph::add_task: dependency on a not-yet-added task");
    }
  }
  for (const TileId tile : task.inputs) {
    if (tile >= num_tiles_) {
      throw std::invalid_argument("TaskGraph::add_task: unknown input tile");
    }
  }
  if (task.output != kNoTile && task.output >= num_tiles_) {
    throw std::invalid_argument("TaskGraph::add_task: unknown output tile");
  }
  if (!(task.work > 0.0)) {
    throw std::invalid_argument("TaskGraph::add_task: work must be positive");
  }
  tasks_.push_back(std::move(task));
  successors_built_ = false;
  return id;
}

const std::vector<std::vector<DagTaskId>>& TaskGraph::successors() const {
  if (!successors_built_) {
    successors_.assign(tasks_.size(), {});
    for (DagTaskId t = 0; t < tasks_.size(); ++t) {
      for (const DagTaskId dep : tasks_[t].deps) {
        successors_[dep].push_back(t);
      }
    }
    successors_built_ = true;
  }
  return successors_;
}

void TaskGraph::validate() const {
  // Construction already enforces deps < id, which guarantees acyclicity
  // (task ids are a topological order); re-verify for defence in depth.
  for (DagTaskId t = 0; t < tasks_.size(); ++t) {
    for (const DagTaskId dep : tasks_[t].deps) {
      if (dep >= t) {
        throw std::invalid_argument("TaskGraph::validate: cycle detected");
      }
    }
  }
}

double TaskGraph::total_work() const {
  double sum = 0.0;
  for (const auto& t : tasks_) sum += t.work;
  return sum;
}

std::vector<double> TaskGraph::bottom_levels() const {
  const auto& succ = successors();
  std::vector<double> levels(tasks_.size(), 0.0);
  // Ids are a topological order, so a reverse scan suffices.
  for (DagTaskId t = static_cast<DagTaskId>(tasks_.size()); t-- > 0;) {
    double best = 0.0;
    for (const DagTaskId s : succ[t]) best = std::max(best, levels[s]);
    levels[t] = tasks_[t].work + best;
  }
  return levels;
}

double TaskGraph::critical_path() const {
  const auto levels = bottom_levels();
  return levels.empty() ? 0.0
                        : *std::max_element(levels.begin(), levels.end());
}

std::size_t TaskGraph::count_kind(const std::string& kind) const {
  return static_cast<std::size_t>(
      std::count_if(tasks_.begin(), tasks_.end(),
                    [&](const DagTask& t) { return t.kind == kind; }));
}

}  // namespace hetsched
