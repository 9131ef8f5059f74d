// Graph-derived scheduling features (§III-D of the paper).
//
//  * b-level: length of the longest (runtime-weighted) path from the task to
//    an exit node, inclusive of the task itself.  The maximum b-level over
//    all tasks is the critical-path length of the DAG.
//  * b-load (per resource): the load (runtime x demand) accumulated along the
//    task's b-level path.  The paper describes the b-load as "accumulating
//    the load of the tasks along the corresponding path" — we accumulate
//    along the path that realizes the b-level (ties broken toward the child
//    with larger b-load), which matches the motivation of capturing how much
//    resource pressure sits downstream of the task.
//  * number of children: the classic b-level tiebreaker.
//  * total load (per resource): Dag::total_load, cached here because the
//    featurizer normalizes every b-load by it on every call.
//
// Features are computed once per DAG in reverse topological order (O(V+E))
// and exposed as plain arrays indexed by TaskId.

#pragma once

#include <vector>

#include "dag/dag.h"

namespace spear {

class DagFeatures {
 public:
  /// Computes all features for `dag`.  The Dag must outlive this object only
  /// for the duration of the constructor; results are stored by value.
  explicit DagFeatures(const Dag& dag);

  /// Runtime-weighted longest path to an exit node, including the task.
  Time b_level(TaskId id) const {
    return b_level_[static_cast<std::size_t>(id)];
  }

  /// Accumulated load (runtime x demand[resource]) along the b-level path.
  double b_load(TaskId id, std::size_t resource) const {
    return b_load_[static_cast<std::size_t>(id)][resource];
  }

  std::size_t num_children(TaskId id) const {
    return num_children_[static_cast<std::size_t>(id)];
  }

  /// Number of (transitive) descendants, excluding the task itself.
  std::size_t num_descendants(TaskId id) const {
    return num_descendants_[static_cast<std::size_t>(id)];
  }

  /// The DAG's critical-path length: max b-level over all tasks.
  Time critical_path() const { return critical_path_; }

  /// Dag::total_load(resource), computed once by the same loop (so the
  /// values are bit-identical).
  double total_load(std::size_t resource) const {
    return total_load_[resource];
  }

  std::size_t resource_dims() const { return resource_dims_; }

 private:
  std::vector<Time> b_level_;
  std::vector<ResourceVector> b_load_;
  std::vector<std::size_t> num_children_;
  std::vector<std::size_t> num_descendants_;
  ResourceVector total_load_;
  Time critical_path_ = 0;
  std::size_t resource_dims_ = 2;
};

}  // namespace spear
