#include "dag/features.h"

#include <algorithm>

namespace spear {

DagFeatures::DagFeatures(const Dag& dag)
    : total_load_(dag.resource_dims()), resource_dims_(dag.resource_dims()) {
  for (std::size_t r = 0; r < resource_dims_; ++r) {
    total_load_[r] = dag.total_load(r);
  }
  const std::size_t n = dag.num_tasks();
  b_level_.assign(n, 0);
  b_load_.assign(n, ResourceVector(resource_dims_));
  num_children_.assign(n, 0);
  num_descendants_.assign(n, 0);

  // Descendant sets via bitsets, processed in reverse topological order.
  // O(V * V / 64 + E * V / 64): fine for the graph sizes we schedule (<= a
  // few thousand tasks).
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> desc(n * words, 0);

  const auto& topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    const auto ui = static_cast<std::size_t>(u);
    const Task& task = dag.task(u);
    num_children_[ui] = dag.children(u).size();

    // b-level / b-load along the dominant child path.
    Time best_child_blevel = 0;
    const std::size_t R = resource_dims_;
    ResourceVector best_child_bload(R);
    for (TaskId v : dag.children(u)) {
      const auto vi = static_cast<std::size_t>(v);
      const bool better =
          b_level_[vi] > best_child_blevel ||
          (b_level_[vi] == best_child_blevel &&
           b_load_[vi].sum() > best_child_bload.sum());
      if (better) {
        best_child_blevel = b_level_[vi];
        best_child_bload = b_load_[vi];
      }
      // Merge child descendants into ours, plus the child itself.
      for (std::size_t w = 0; w < words; ++w) {
        desc[ui * words + w] |= desc[vi * words + w];
      }
      desc[ui * words + vi / 64] |= (std::uint64_t{1} << (vi % 64));
    }
    b_level_[ui] = task.runtime + best_child_blevel;
    ResourceVector own_load(R);
    for (std::size_t r = 0; r < R; ++r) {
      own_load[r] = static_cast<double>(task.runtime) * task.demand[r];
    }
    b_load_[ui] = own_load + best_child_bload;

    std::size_t count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += static_cast<std::size_t>(__builtin_popcountll(desc[ui * words + w]));
    }
    num_descendants_[ui] = count;

    critical_path_ = std::max(critical_path_, b_level_[ui]);
  }
}

}  // namespace spear
