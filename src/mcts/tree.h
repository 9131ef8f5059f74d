// The MCTS search tree (§III-C).
//
// Each node is one state — a unique history of actions from the decision
// root — holding a full environment snapshot, so selection never
// re-simulates a prefix.  Values are negative makespans; per the paper's
// backpropagation rule every node tracks both the MAXIMUM value seen in
// rollouts through it (the exploitation score) and the running mean (the
// tiebreaker).  Nodes live in an arena indexed by NodeId that grows
// geometrically with the nodes actually expanded, so memory follows the
// work done, not the configured budget.  Growth moves nodes: a SearchNode&
// is invalidated by add_child, so callers re-fetch nodes by id after every
// expansion.

#pragma once

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "env/env.h"

namespace spear {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

struct SearchNode {
  SchedulingEnv state;
  int action_from_parent = 0;
  NodeId parent = kNoNode;
  std::vector<NodeId> children;
  /// Untried actions in descending guidance weight; expansion pops from the
  /// front so the most promising action is tried first.
  std::vector<std::pair<int, double>> untried;
  bool terminal = false;
  /// Fault mode: the action into this node aborted the simulated job
  /// (retry budget exhausted); evaluated with a fixed penalty, never
  /// expanded.
  bool aborted = false;

  std::int64_t visits = 0;
  double max_value = -std::numeric_limits<double>::infinity();
  double sum_value = 0.0;
  /// Virtual loss: number of in-flight descents currently holding this node
  /// on their path.  Inflates the node's visit count during selection so
  /// concurrent descents spread over siblings, and is released when the
  /// descent's evaluation is backed up.  Always 0 between ticks, so the
  /// serial search's one-slot ticks never observe it.
  std::int32_t vloss = 0;

  explicit SearchNode(SchedulingEnv s) : state(std::move(s)) {}

  double mean_value() const {
    return visits > 0 ? sum_value / static_cast<double>(visits) : 0.0;
  }
};
// Arena growth must move node states, never copy them.
static_assert(std::is_nothrow_move_constructible_v<SearchNode>);

class SearchTree {
 public:
  explicit SearchTree(SchedulingEnv root_state) {
    nodes_.emplace_back(std::move(root_state));
  }

  NodeId root() const { return 0; }
  SearchNode& node(NodeId id) { return nodes_[static_cast<std::size_t>(id)]; }
  const SearchNode& node(NodeId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  std::size_t size() const { return nodes_.size(); }

  /// Appends a child of `parent` reached via `action`.  May grow the arena,
  /// which invalidates every SearchNode reference into this tree.
  NodeId add_child(NodeId parent, int action, SchedulingEnv state) {
    const auto id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back(std::move(state));
    nodes_.back().parent = parent;
    nodes_.back().action_from_parent = action;
    node(parent).children.push_back(id);
    return id;
  }

  /// Updates visits/max/sum on `id` and every ancestor (§III-C
  /// backpropagation: max with mean as tiebreaker).
  void backpropagate(NodeId id, double value) {
    for (NodeId cur = id; cur != kNoNode; cur = node(cur).parent) {
      SearchNode& n = node(cur);
      ++n.visits;
      n.sum_value += value;
      if (value > n.max_value) n.max_value = value;
    }
  }

  /// New tree whose root is (a copy of) `new_root` and whose nodes are
  /// exactly the subtree below it — the paper's "selected child becomes
  /// the new root" tree reuse, compacting away the discarded siblings.
  SearchTree reroot(NodeId new_root) const {
    SearchTree out(node(new_root).state);
    copy_node_into(out, new_root, out.root());
    return out;
  }

 private:
  /// Copies statistics/untried of `src` onto `dst` in `out`, then clones
  /// the children subtrees.
  void copy_node_into(SearchTree& out, NodeId src, NodeId dst) const {
    const SearchNode& from = node(src);
    SearchNode& to = out.node(dst);
    to.untried = from.untried;
    to.terminal = from.terminal;
    to.aborted = from.aborted;
    to.visits = from.visits;
    to.max_value = from.max_value;
    to.sum_value = from.sum_value;
    to.vloss = from.vloss;
    for (NodeId child : from.children) {
      const NodeId cloned = out.add_child(
          dst, node(child).action_from_parent, node(child).state);
      copy_node_into(out, child, cloned);
    }
  }

  std::vector<SearchNode> nodes_;
};

}  // namespace spear
