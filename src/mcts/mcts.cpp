#include "mcts/mcts.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace spear {

namespace {

/// Applies an env-level action, processing to the next completion for the
/// process action (the paper's depth-minimizing adaptation).
void apply_action(SchedulingEnv& env, int action) {
  if (action == SchedulingEnv::kProcessAction) {
    env.process_to_next_finish();
  } else {
    env.step(action);
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Independent deterministic RNG stream for one (decision, iteration) slot
/// of the leaf-parallel search.  Keyed by the GLOBAL iteration index, not
/// the worker id, so a slot's rollout stream is the same no matter how
/// slots are partitioned across workers.  Two SplitMix64 passes decorrelate
/// nearby decision/iteration indices; the salt is part of the stream
/// definition (changing it changes every leaf-mode result).
std::uint64_t leaf_stream_seed(std::uint64_t seed, std::uint64_t decision,
                               std::uint64_t iteration) {
  SplitMix64 outer(seed ^ 0x1eafc0de00000000ULL ^
                   (decision * 0x9e3779b97f4a7c15ULL));
  SplitMix64 inner(outer.next() ^ (iteration + 1));
  return inner.next();
}

/// One in-flight descent of a leaf-parallel evaluator tick (DESIGN.md §11).
/// The coordinator fills the descent fields under virtual loss; a worker
/// thread fills the child/rollout results (each worker owns a disjoint
/// contiguous slot range, so jobs are written race-free); the coordinator
/// consumes everything at backup, in slot order.
struct LeafJob {
  enum class Kind {
    kExpand,    ///< pop a reserved untried action of `node` and expand it
    kRollout,   ///< re-rollout `node` (all its actions are in flight)
    kTerminal,  ///< revisit of a terminal node (value known immediately)
  };
  Kind kind = Kind::kTerminal;
  NodeId node = kNoNode;
  int action = 0;            ///< kExpand: the reserved untried action
  std::vector<NodeId> path;  ///< nodes holding virtual loss (root..node)

  // Worker-filled results.
  std::optional<SchedulingEnv> child;  ///< kExpand: the stepped child state
  bool aborted = false;
  bool terminal = false;
  double value = 0.0;
  TranspositionCache::Key key;  ///< canonical key (nonterminal kExpand)

  // Per-job telemetry, folded into Stats at backup in slot order so the
  // totals are independent of the worker partition.
  std::int64_t env_copies = 0;
  std::int64_t rollouts = 0;
  std::int64_t fault_failures = 0;
  std::int64_t fault_retries = 0;
  std::int64_t fault_aborts = 0;

  // Evaluation-queue bookkeeping (coordinator side).
  std::vector<std::pair<int, double>> priors;  ///< new child's ordering
  std::chrono::steady_clock::time_point enqueued;  ///< obs: queue wait
};

/// Constructs every candidate child of `parent` up front and scores all
/// non-terminal ones with ONE fused guide evaluation (DESIGN.md §10).
/// prepared[i] corresponds to untried[i]; expansion pops both in lockstep.
/// Environment copies and fault deltas are NOT counted here — the expansion
/// pop accounts for them, so Stats match the lazy path exactly.
std::vector<PreparedChild> prepare_children(
    const SchedulingEnv& parent,
    const std::vector<std::pair<int, double>>& untried, DecisionPolicy& guide,
    MctsScheduler::Stats& stats) {
  std::vector<PreparedChild> out;
  out.reserve(untried.size());
  for (const auto& [action, weight] : untried) {
    PreparedChild pc(action, parent);
    const EnvFaultStats pre = pc.state.fault_stats();
    try {
      apply_action(pc.state, action);
    } catch (const JobAbortedError&) {
      pc.aborted = true;
    }
    pc.fault_failures = pc.state.fault_stats().failures - pre.failures;
    pc.fault_retries = pc.state.fault_stats().retries - pre.retries;
    pc.terminal = pc.aborted || pc.state.done();
    out.push_back(std::move(pc));
  }
  std::vector<const SchedulingEnv*> pending;
  pending.reserve(out.size());
  for (const PreparedChild& pc : out) {
    if (!pc.terminal) pending.push_back(&pc.state);
  }
  if (!pending.empty()) {
    auto lists = guide.action_weights_batch(pending.data(), pending.size());
    std::size_t next = 0;
    for (PreparedChild& pc : out) {
      if (!pc.terminal) pc.untried = std::move(lists[next++]);
    }
    ++stats.batched_evals;
    stats.batched_rows += static_cast<std::int64_t>(pending.size());
  }
  return out;
}

}  // namespace

Time greedy_makespan_estimate(const SchedulingEnv& env) {
  HeuristicDecisionPolicy greedy;
  Rng unused(0);  // HeuristicDecisionPolicy::pick is deterministic
  SchedulingEnv copy = env;
  try {
    while (!copy.done()) {
      apply_action(copy, greedy.pick(copy, unused));
    }
  } catch (const JobAbortedError&) {
    // Fault mode: the greedy probe aborted — any positive scale works.
    return env.dag().total_runtime() + 1;
  }
  return copy.makespan();
}

MctsScheduler::MctsScheduler(MctsOptions options,
                             std::shared_ptr<DecisionPolicy> guide)
    : options_(std::move(options)), guide_(std::move(guide)) {
  if (options_.initial_budget <= 0 || options_.min_budget <= 0) {
    throw std::invalid_argument("MctsScheduler: budgets must be positive");
  }
  if (options_.exploration_scale < 0.0) {
    throw std::invalid_argument(
        "MctsScheduler: exploration_scale must be non-negative");
  }
  if (options_.num_threads < 1) {
    throw std::invalid_argument(
        "MctsScheduler: num_threads must be at least 1");
  }
  if (options_.time_budget_ms < 0) {
    throw std::invalid_argument(
        "MctsScheduler: time_budget_ms must be non-negative");
  }
  if (options_.leaf_batch_size < 1) {
    throw std::invalid_argument(
        "MctsScheduler: leaf_batch_size must be at least 1");
  }
  if (!guide_) {
    guide_ = std::make_shared<RandomDecisionPolicy>();
  }
  if (!options_.fallback) {
    options_.fallback = std::make_shared<HeuristicDecisionPolicy>();
  }
}

void MctsScheduler::set_anytime_budgets(std::int64_t initial_budget,
                                        std::int64_t min_budget,
                                        std::int64_t time_budget_ms) {
  if (initial_budget <= 0 || min_budget <= 0) {
    throw std::invalid_argument("MctsScheduler: budgets must be positive");
  }
  if (time_budget_ms < 0) {
    throw std::invalid_argument(
        "MctsScheduler: time_budget_ms must be non-negative");
  }
  options_.initial_budget = initial_budget;
  options_.min_budget = min_budget;
  options_.time_budget_ms = time_budget_ms;
}

void MctsScheduler::search_once(SearchTree& tree, Rng& rng,
                                double exploration_c) {
  // --- Selection: descend while fully expanded. ---
  NodeId current = tree.root();
  while (true) {
    SearchNode& n = tree.node(current);
    if (n.terminal || !n.untried.empty() || n.children.empty()) break;
    NodeId best = kNoNode;
    double best_score = -std::numeric_limits<double>::infinity();
    double best_mean = -std::numeric_limits<double>::infinity();
    const double log_n =
        std::log(static_cast<double>(std::max<std::int64_t>(n.visits, 1)));
    for (NodeId child_id : n.children) {
      const SearchNode& child = tree.node(child_id);
      const double explore =
          exploration_c *
          std::sqrt(log_n / static_cast<double>(std::max<std::int64_t>(
                                child.visits, 1)));
      const double exploit =
          options_.max_backprop ? child.max_value : child.mean_value();
      const double score = exploit + explore;  // Eq. 5
      const double mean = child.mean_value();
      if (score > best_score ||
          (score == best_score && mean > best_mean)) {
        best_score = score;
        best_mean = mean;
        best = child_id;
      }
    }
    current = best;
  }

  // --- Expansion: try the most promising untried action (the guide
  // pre-orders untried, so the front is the best candidate).  add_child may
  // grow the arena, so each branch is done with `selected` before it. ---
  SearchNode& selected = tree.node(current);
  if (!selected.terminal && !selected.untried.empty()) {
    NodeId child_id;
    if (selected.prepared_ready && !selected.prepared.empty()) {
      // Batched fast path (DESIGN.md §10): the child state and its guide
      // ordering were precomputed by one fused batch evaluation.  All
      // accounting happens here, at pop time, so Stats are identical to
      // the lazy path below (unpopped speculation is never counted).
      PreparedChild pc = std::move(selected.prepared.front());
      selected.prepared.erase(selected.prepared.begin());
      selected.untried.erase(selected.untried.begin());
      ++stats_.env_copies;
      if (options_.faults) {
        stats_.search_failures += pc.fault_failures;
        stats_.search_retries += pc.fault_retries;
        if (pc.aborted) ++stats_.search_aborts;
      }
      child_id = tree.add_child(current, pc.action, std::move(pc.state));
      SearchNode& child = tree.node(child_id);
      child.aborted = pc.aborted;
      child.terminal = pc.terminal;
      child.untried = std::move(pc.untried);
    } else {
      const int action = selected.untried.front().first;
      selected.untried.erase(selected.untried.begin());
      SchedulingEnv child_state = selected.state;
      ++stats_.env_copies;
      const EnvFaultStats pre_expand = child_state.fault_stats();
      bool aborted = false;
      try {
        apply_action(child_state, action);
      } catch (const JobAbortedError&) {
        // Fault mode: this action path exhausts a retry budget.  Keep the
        // node (with its fixed penalty) so the search learns to avoid it.
        aborted = true;
      }
      if (options_.faults) {
        stats_.search_failures +=
            child_state.fault_stats().failures - pre_expand.failures;
        stats_.search_retries +=
            child_state.fault_stats().retries - pre_expand.retries;
        if (aborted) ++stats_.search_aborts;
      }
      child_id = tree.add_child(current, action, std::move(child_state));
      SearchNode& child = tree.node(child_id);
      child.aborted = aborted;
      child.terminal = aborted || child.state.done();
      if (!child.terminal) {
        child.untried = guide_->action_weights(child.state);
      }
    }
    current = child_id;
    ++stats_.nodes_expanded;
  }
  ++stats_.iterations;

  // --- Simulation: rollout to termination with the guide policy. ---
  double value;
  const SearchNode& leaf = tree.node(current);
  if (leaf.aborted) {
    value = abort_value_;
  } else if (leaf.terminal) {
    value = -static_cast<double>(leaf.state.makespan());
  } else {
    SchedulingEnv rollout = leaf.state;
    ++stats_.env_copies;
    const EnvFaultStats pre_rollout = rollout.fault_stats();
    try {
      while (!rollout.done()) {
        apply_action(rollout, guide_->pick(rollout, rng));
      }
      value = -static_cast<double>(rollout.makespan());
    } catch (const JobAbortedError&) {
      value = abort_value_;  // penalize the abort, never kill the search
      if (options_.faults) ++stats_.search_aborts;
    }
    if (options_.faults) {
      stats_.search_failures +=
          rollout.fault_stats().failures - pre_rollout.failures;
      stats_.search_retries +=
          rollout.fault_stats().retries - pre_rollout.retries;
    }
    ++stats_.rollouts;
  }

  // --- Backpropagation (max + mean, §III-C). ---
  tree.backpropagate(current, value);
}

SearchTree MctsScheduler::make_tree(const SchedulingEnv& env,
                                    DecisionPolicy& guide) {
  SearchTree tree(env);
  SearchNode& root = tree.node(tree.root());
  root.untried = guide.action_weights(env);
  if (root.untried.empty()) {
    throw std::logic_error("MctsScheduler: no valid action at decision root");
  }
  return tree;
}

void MctsScheduler::maybe_prepare_root(SearchTree& tree) {
  SearchNode& root = tree.node(tree.root());
  if (!options_.batch_expansion || !guide_->supports_batch_eval()) return;
  if (root.prepared_ready || root.terminal || root.untried.empty()) return;
  root.prepared = prepare_children(root.state, root.untried, *guide_, stats_);
  root.prepared_ready = true;
}

NodeId MctsScheduler::decide(SearchTree& tree, std::int64_t budget, Rng& rng,
                             double exploration_c, const Deadline& deadline,
                             bool& ran_any) {
  ran_any = false;
  for (std::int64_t i = 0; i < budget; ++i) {
    if (deadline_reached(deadline)) {
      ++stats_.deadline_cutoffs;
      break;
    }
    search_once(tree, rng, exploration_c);
    ran_any = true;
  }
  return best_root_child(tree);
}

NodeId MctsScheduler::best_root_child(const SearchTree& tree) const {
  // Final move: pure exploitation — best max value, mean as tiebreaker
  // (or mean only under the ablation).
  const SearchNode& final_root = tree.node(tree.root());
  NodeId best = kNoNode;
  double best_exploit = -std::numeric_limits<double>::infinity();
  double best_mean = -std::numeric_limits<double>::infinity();
  for (NodeId child_id : final_root.children) {
    const SearchNode& child = tree.node(child_id);
    const double exploit =
        options_.max_backprop ? child.max_value : child.mean_value();
    if (exploit > best_exploit ||
        (exploit == best_exploit && child.mean_value() > best_mean)) {
      best_exploit = exploit;
      best_mean = child.mean_value();
      best = child_id;
    }
  }
  return best;
}

NodeId MctsScheduler::decide_leaf(SearchTree& tree, std::int64_t budget,
                                  std::int64_t decision_depth,
                                  double exploration_c,
                                  const Deadline& deadline, bool& ran_any) {
  ran_any = false;
  // The arena only grows in the backup loop below, after the workers have
  // joined: descents and workers address nodes by id while it is fixed.
  const auto workers = static_cast<std::int64_t>(worker_guides_.size());
  // Absolute, worker-count-independent tick size (see MctsOptions): the
  // same seed and budget descend the same tree no matter how many workers
  // split the slots.
  const std::int64_t per_tick =
      std::max<std::int64_t>(options_.leaf_batch_size, 1);

  // One sequential descent under virtual loss; returns the reserved job.
  // Descents run on the coordinator thread — selection is a few float
  // compares per level, negligible next to the network forwards the tick
  // parallelizes — which is what keeps leaf mode deterministic: slot i's
  // job depends only on the i-1 descents before it, never on OS timing.
  const auto descend = [&]() -> LeafJob {
    LeafJob job;
    NodeId current = tree.root();
    bool collided = false;
    while (true) {
      SearchNode& n = tree.node(current);
      job.path.push_back(current);
      if (current != tree.root() && n.vloss > 0) collided = true;
      if (n.terminal) {
        job.kind = LeafJob::Kind::kTerminal;
        job.node = current;
        job.value = n.aborted ? abort_value_
                              : -static_cast<double>(n.state.makespan());
        break;
      }
      if (!n.untried.empty()) {
        // Reserve the most promising untried action: pop it NOW so the
        // next descent tries the next action instead of duplicating this
        // one; the child node itself is created at backup.
        job.kind = LeafJob::Kind::kExpand;
        job.node = current;
        job.action = n.untried.front().first;
        n.untried.erase(n.untried.begin());
        break;
      }
      if (n.children.empty()) {
        // Every action of this node is already in flight in this tick:
        // contribute another rollout from the node itself.
        job.kind = LeafJob::Kind::kRollout;
        job.node = current;
        break;
      }
      // UCB (Eq. 5) with virtual loss: in-flight descents inflate visit
      // counts (their value contribution is still unknown), steering
      // concurrent descents toward unexplored siblings.  The exploitation
      // term is untouched — a subtractive penalty would need tuning
      // against the negative-makespan value scale, whereas visit
      // inflation is scale-free.
      NodeId best = kNoNode;
      double best_score = -std::numeric_limits<double>::infinity();
      double best_mean = -std::numeric_limits<double>::infinity();
      const double log_n = std::log(static_cast<double>(
          std::max<std::int64_t>(n.visits + n.vloss, 1)));
      for (NodeId child_id : n.children) {
        const SearchNode& child = tree.node(child_id);
        const double explore =
            exploration_c *
            std::sqrt(log_n /
                      static_cast<double>(std::max<std::int64_t>(
                          child.visits + child.vloss, 1)));
        const double exploit =
            options_.max_backprop ? child.max_value : child.mean_value();
        const double score = exploit + explore;
        const double mean = child.mean_value();
        if (score > best_score || (score == best_score && mean > best_mean)) {
          best_score = score;
          best_mean = mean;
          best = child_id;
        }
      }
      current = best;
    }
    if (collided) ++stats_.vloss_collisions;
    for (NodeId id : job.path) ++tree.node(id).vloss;
    return job;
  };

  std::int64_t completed = 0;
  while (completed < budget) {
    if (deadline_reached(deadline)) {
      ++stats_.deadline_cutoffs;
      break;
    }
    const std::int64_t slots = std::min(per_tick, budget - completed);
    obs::ScopedTimer tick_span("mcts.leaf.tick", "mcts");
    if (tick_span.active()) {
      tick_span.set_args("\"decision\":" + std::to_string(decision_depth) +
                         ",\"slots\":" + std::to_string(slots));
    }

    // --- Descend: reserve one leaf per slot under virtual loss. ---
    std::vector<LeafJob> jobs;
    jobs.reserve(static_cast<std::size_t>(slots));
    for (std::int64_t s = 0; s < slots; ++s) jobs.push_back(descend());
    // Per-slot rollout RNG streams, keyed by the global iteration index so
    // they do not depend on the worker partition.
    std::vector<Rng> rngs;
    rngs.reserve(jobs.size());
    for (std::int64_t s = 0; s < slots; ++s) {
      rngs.emplace_back(leaf_stream_seed(
          options_.seed, static_cast<std::uint64_t>(decision_depth),
          static_cast<std::uint64_t>(completed + s)));
    }

    // --- Workers: construct child states, then advance all of their
    // rollouts in lockstep so batch-capable guides fuse one forward per
    // rollout STEP instead of one per rollout state. ---
    const auto worker_body =
        [&](std::size_t w) {
          const auto lo = static_cast<std::size_t>(
              slots * static_cast<std::int64_t>(w) / workers);
          const auto hi = static_cast<std::size_t>(
              slots * (static_cast<std::int64_t>(w) + 1) / workers);
          if (lo >= hi) return;
          DecisionPolicy& guide = *worker_guides_[w];

          struct ActiveRollout {
            std::size_t slot;
            SchedulingEnv env;
            EnvFaultStats pre;
          };
          std::vector<ActiveRollout> active;
          active.reserve(hi - lo);
          for (std::size_t s = lo; s < hi; ++s) {
            LeafJob& job = jobs[s];
            if (job.kind == LeafJob::Kind::kTerminal) continue;
            const SearchNode& node = tree.node(job.node);
            if (job.kind == LeafJob::Kind::kRollout) {
              ++job.env_copies;
              active.push_back({s, node.state, node.state.fault_stats()});
              continue;
            }
            SchedulingEnv child = node.state;
            ++job.env_copies;
            const EnvFaultStats pre = child.fault_stats();
            try {
              apply_action(child, job.action);
            } catch (const JobAbortedError&) {
              job.aborted = true;
            }
            job.fault_failures = child.fault_stats().failures - pre.failures;
            job.fault_retries = child.fault_stats().retries - pre.retries;
            if (job.aborted) ++job.fault_aborts;
            job.terminal = job.aborted || child.done();
            if (job.aborted) {
              job.value = abort_value_;
            } else if (job.terminal) {
              job.value = -static_cast<double>(child.makespan());
            } else {
              child.append_canonical_key(job.key);
              if (obs::enabled()) {
                job.enqueued = std::chrono::steady_clock::now();
              }
              ++job.env_copies;
              active.push_back({s, child, child.fault_stats()});
            }
            job.child.emplace(std::move(child));
          }

          std::vector<const SchedulingEnv*> envs;
          std::vector<Rng*> rng_ptrs;
          std::vector<int> picks;
          while (!active.empty()) {
            envs.clear();
            rng_ptrs.clear();
            for (ActiveRollout& a : active) {
              envs.push_back(&a.env);
              rng_ptrs.push_back(&rngs[a.slot]);
            }
            picks.resize(active.size());
            guide.pick_batch(envs.data(), active.size(), rng_ptrs.data(),
                             picks.data());
            std::size_t kept = 0;
            for (std::size_t i = 0; i < active.size(); ++i) {
              ActiveRollout& a = active[i];
              LeafJob& job = jobs[a.slot];
              bool finished = false;
              try {
                apply_action(a.env, picks[i]);
                if (a.env.done()) {
                  job.value = -static_cast<double>(a.env.makespan());
                  finished = true;
                }
              } catch (const JobAbortedError&) {
                job.value = abort_value_;
                ++job.fault_aborts;
                finished = true;
              }
              if (finished) {
                job.fault_failures +=
                    a.env.fault_stats().failures - a.pre.failures;
                job.fault_retries +=
                    a.env.fault_stats().retries - a.pre.retries;
                ++job.rollouts;
              } else {
                if (kept != i) active[kept] = std::move(active[i]);
                ++kept;
              }
            }
            active.erase(active.begin() + static_cast<std::ptrdiff_t>(kept),
                         active.end());
          }
        };
    // One worker runs the body inline: a one-lane pool dispatch would pay a
    // submit/wake/join round trip per tick for zero parallelism — a
    // measurable leaf-throughput tax at num_threads == 1 (and the pool is
    // not even built then, see ensure_parallel_workers).
    if (workers == 1) {
      worker_body(0);
    } else {
      pool_->parallel_for(static_cast<std::size_t>(workers), worker_body);
    }

    // --- Evaluator: drain the queue of new leaf states through the
    // transposition cache, then ONE fused guide forward for the misses. ---
    {
      obs::ScopedTimer drain_span("mcts.evaluator.drain", "mcts");
      const bool obs_on = drain_span.active();
      const auto drain_start = obs_on ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point();
      std::vector<const SchedulingEnv*> pending;
      std::vector<LeafJob*> pending_jobs;
      for (LeafJob& job : jobs) {
        if (job.kind != LeafJob::Kind::kExpand || job.terminal) continue;
        if (obs_on) {
          obs::observe(
              "mcts.evaluator.queue_wait_ms",
              std::chrono::duration<double, std::milli>(drain_start -
                                                        job.enqueued)
                  .count());
        }
        if (const TranspositionCache::Priors* hit =
                transpositions_->find(job.key)) {
          job.priors = *hit;  // copy: inserts below may evict the entry
          ++stats_.tt_hits;
        } else {
          // A disabled cache (capacity 0) is not "all misses": the probe
          // counters only track a cache that is actually in play.
          if (transpositions_->capacity() > 0) ++stats_.tt_misses;
          pending.push_back(&*job.child);
          pending_jobs.push_back(&job);
        }
      }
      if (!pending.empty()) {
        auto lists =
            guide_->action_weights_batch(pending.data(), pending.size());
        ++stats_.batched_evals;
        stats_.batched_rows += static_cast<std::int64_t>(pending.size());
        if (obs_on) {
          obs::observe("mcts.evaluator.batch_rows",
                       static_cast<double>(pending.size()));
        }
        for (std::size_t i = 0; i < pending_jobs.size(); ++i) {
          transpositions_->insert(pending_jobs[i]->key, lists[i]);
          pending_jobs[i]->priors = std::move(lists[i]);
        }
      }
    }

    // --- Backup, in slot order (the deterministic tie-breaking order),
    // releasing each descent's virtual loss. ---
    for (LeafJob& job : jobs) {
      NodeId backprop_from = job.node;
      if (job.kind == LeafJob::Kind::kExpand) {
        const NodeId child_id =
            tree.add_child(job.node, job.action, std::move(*job.child));
        SearchNode& child = tree.node(child_id);
        child.aborted = job.aborted;
        child.terminal = job.terminal;
        if (!job.terminal) child.untried = std::move(job.priors);
        ++stats_.nodes_expanded;
        backprop_from = child_id;
      }
      stats_.env_copies += job.env_copies;
      stats_.rollouts += job.rollouts;
      if (options_.faults) {
        stats_.search_failures += job.fault_failures;
        stats_.search_retries += job.fault_retries;
        stats_.search_aborts += job.fault_aborts;
      }
      ++stats_.iterations;
      tree.backpropagate(backprop_from, job.value);
      for (NodeId id : job.path) --tree.node(id).vloss;
    }

    ++stats_.leaf_ticks;
    completed += slots;
    ran_any = true;
  }
  return best_root_child(tree);
}

bool MctsScheduler::ensure_parallel_workers() {
  const auto n = static_cast<std::size_t>(options_.num_threads);
  if (worker_guides_.size() != n) {
    worker_guides_.clear();
    worker_guides_.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      auto clone = guide_->clone();
      if (!clone) {
        // Uncloneable custom guide: stay serial rather than race on it.
        worker_guides_.clear();
        return false;
      }
      worker_guides_.push_back(std::move(clone));
    }
  }
  if (n > 1) {
    if (!pool_ || pool_->size() != n) {
      pool_ = std::make_unique<ThreadPool>(n);
    }
  } else {
    // Single worker: every tick runs inline on the coordinator, so a pool
    // would only add idle threads and a per-tick dispatch round trip.
    pool_.reset();
  }
  return true;
}

Schedule MctsScheduler::schedule(const Dag& dag,
                                 const ResourceVector& capacity) {
  EnvOptions env_options;
  env_options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  if (const auto* drl = dynamic_cast<const DrlDecisionPolicy*>(guide_.get())) {
    // The policy network can only see its featurizer's ready window (§V-A:
    // at most 15 ready tasks are fed to the network, the rest backlog).
    env_options.max_ready = drl->max_ready();
  }
  env_options.faults = options_.faults;
  env_options.retry = options_.retry;
  return schedule_env(
      SchedulingEnv(std::make_shared<Dag>(dag), capacity, env_options));
}

Schedule MctsScheduler::schedule_env(SchedulingEnv env) {
  stats_ = {};
  Rng rng(options_.seed);
  const Dag& dag = env.dag();

  obs::ScopedTimer schedule_span("mcts.schedule", "mcts");
  if (schedule_span.active()) {
    schedule_span.set_args("\"name\":\"" + options_.name + "\",\"tasks\":" +
                           std::to_string(dag.num_tasks()) + ",\"threads\":" +
                           std::to_string(options_.num_threads));
  }

  // Simulated trajectories that abort under the retry policy score strictly
  // worse than any completion: bound the worst completable makespan (every
  // attempt of every task straggler-stretched, every backoff fully served,
  // the whole capacity-loss horizon waited out) and go one past it.
  double worst = static_cast<double>(dag.total_runtime());
  if (options_.faults) {
    worst *= std::max(options_.faults->options().straggler_factor, 1.0) *
             static_cast<double>(options_.retry.max_retries + 1);
    worst += static_cast<double>(dag.num_tasks()) *
             static_cast<double>(options_.retry.max_retries) *
             static_cast<double>(options_.retry.backoff_cap);
    worst += static_cast<double>(options_.faults->options().loss_horizon);
  }
  abort_value_ = -(worst + 1.0);

  const double exploration_c =
      options_.exploration_scale *
      static_cast<double>(std::max<Time>(greedy_makespan_estimate(env), 1));

  // Leaf parallelism is the one parallel search: it runs at num_threads > 1,
  // and also at one thread when selected (SearchMode::kLeaf), where the
  // shared-evaluator batching, not thread scaling, is the win.  It needs a
  // cloneable guide; an uncloneable custom guide falls back to the serial
  // search.
  const bool leaf_mode = (options_.search_mode == SearchMode::kLeaf ||
                          options_.num_threads > 1) &&
                         ensure_parallel_workers();
  if (leaf_mode) {
    if (!transpositions_ ||
        transpositions_->capacity() != options_.transposition_capacity) {
      transpositions_ = std::make_unique<TranspositionCache>(
          options_.transposition_capacity);
    }
    // Keys do not encode the DAG identity: never reuse entries across
    // schedule() calls.
    transpositions_->clear();
    // Arm the workers' rollout action caches (greedy guides only — the
    // calls are no-ops for sampling or cache-less guides).  Re-arming drops
    // stale entries and zeroes the hit/miss tallies.  At num_threads > 1
    // the workers share ONE cache: private per-worker caches miss
    // independently on the same rollout states, so total forwards GREW
    // with the worker count (the multi-thread throughput regression); hits
    // stay bit-identical either way (greedy picks are pure functions of
    // the state), only the hit/miss split becomes timing-dependent.
    if (worker_guides_.size() > 1 && options_.transposition_capacity > 0) {
      if (!shared_rollout_cache_ || shared_rollout_cache_->capacity() !=
                                        options_.transposition_capacity) {
        shared_rollout_cache_ = std::make_shared<SharedActionCache>(
            options_.transposition_capacity);
      }
      shared_rollout_cache_->clear();
      for (const auto& g : worker_guides_) {
        g->share_rollout_cache(shared_rollout_cache_);
      }
    } else {
      shared_rollout_cache_.reset();
      for (const auto& g : worker_guides_) {
        g->enable_rollout_cache(options_.transposition_capacity);
      }
    }
  }
  // Zero every guide's physical-forward tallies so the end-of-schedule fold
  // reports THIS schedule only (clones persist across schedule() calls).
  if (guide_) guide_->reset_forward_stats();
  for (const auto& g : worker_guides_) g->reset_forward_stats();

  // Anytime mode: every decision gets its own wall-clock deadline, started
  // BEFORE the root guide evaluation so an expensive guide counts against
  // the budget it actually consumes.
  const auto make_deadline = [this]() -> Deadline {
    if (options_.time_budget_ms <= 0) return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(options_.time_budget_ms);
  };
  // Real-trajectory fault counters come from the ONE persistent env that
  // both the serial and the leaf path step; the speculative counters
  // (search_failures/search_retries/search_aborts) are added as the search
  // runs.
  const auto record_fault_stats = [this, &env]() {
    if (!options_.faults) return;
    stats_.task_failures = env.fault_stats().failures;
    stats_.task_retries = env.fault_stats().retries;
  };
  // Worker rollout-cache tallies are folded ONCE per schedule() (each
  // worker accumulates across every decision); the per-worker sums are
  // deterministic for a fixed seed and worker count.
  const auto fold_rollout_cache_stats = [this, leaf_mode]() {
    if (!leaf_mode) return;
    for (const auto& g : worker_guides_) {
      stats_.rollout_cache_hits += g->rollout_cache_hits();
      stats_.rollout_cache_misses += g->rollout_cache_misses();
    }
  };
  // Physical forward telemetry: folded from EVERY guide that may have run
  // a private-weights kernel this schedule (the root guide plus the leaf
  // worker clones).  Counters were reset before the search
  // loop, so the fold is this schedule's tally exactly once.
  const auto fold_forward_stats = [this]() {
    const auto fold_one = [this](const DecisionPolicy& g) {
      stats_.guide_forwards += g.forward_calls();
      stats_.guide_forward_rows += g.forward_rows();
      const std::vector<std::int64_t>* hist = g.forward_hist();
      if (!hist) return;
      if (stats_.batch_rows_hist.size() < hist->size()) {
        stats_.batch_rows_hist.resize(hist->size(), 0);
      }
      for (std::size_t w = 0; w < hist->size(); ++w) {
        stats_.batch_rows_hist[w] += (*hist)[w];
      }
    };
    if (guide_) fold_one(*guide_);
    for (const auto& g : worker_guides_) fold_one(*g);
  };
  // One registry push per schedule() call — hot loops only touch stats_.
  const auto flush_metrics = [this]() {
    if (!obs::enabled()) return;
    obs::count("mcts.schedules");
    obs::count("mcts.decisions", stats_.decisions);
    obs::count("mcts.forced_decisions", stats_.forced_decisions);
    obs::count("mcts.iterations", stats_.iterations);
    obs::count("mcts.rollouts", stats_.rollouts);
    obs::count("mcts.nodes_expanded", stats_.nodes_expanded);
    obs::count("mcts.env_copies", stats_.env_copies);
    obs::count("mcts.deadline_cutoffs", stats_.deadline_cutoffs);
    obs::count("mcts.degradations", stats_.degradations);
    obs::count("mcts.task_failures", stats_.task_failures);
    obs::count("mcts.task_retries", stats_.task_retries);
    obs::count("mcts.search_failures", stats_.search_failures);
    obs::count("mcts.search_retries", stats_.search_retries);
    obs::count("mcts.search_aborts", stats_.search_aborts);
    obs::count("mcts.batched_evals", stats_.batched_evals);
    obs::count("mcts.batched_rows", stats_.batched_rows);
    obs::count("mcts.guide_forwards", stats_.guide_forwards);
    obs::count("mcts.guide_forward_rows", stats_.guide_forward_rows);
    obs::count("mcts.leaf_ticks", stats_.leaf_ticks);
    obs::count("mcts.tt_hits", stats_.tt_hits);
    obs::count("mcts.tt_misses", stats_.tt_misses);
    obs::count("mcts.vloss_collisions", stats_.vloss_collisions);
    obs::count("mcts.rollout_cache_hits", stats_.rollout_cache_hits);
    obs::count("mcts.rollout_cache_misses", stats_.rollout_cache_misses);
    obs::gauge("mcts.last_search_seconds", stats_.search_seconds);
  };

  std::optional<SearchTree> tree;
  std::int64_t depth = 1;  // 1-based decision depth d_i of Eq. 4
  try {
    while (!env.done()) {
      const Deadline deadline = make_deadline();
      if (!tree) tree.emplace(make_tree(env, *guide_));

      const SearchNode& root = tree->node(tree->root());
      if (root.untried.size() == 1 && root.children.empty()) {
        // Forced move: skip the search entirely.
        apply_action(env, root.untried.front().first);
        tree.reset();
        ++stats_.decisions;
        ++stats_.forced_decisions;
        ++depth;
        continue;
      }

      // Batched root preparation is a serial-search optimization: the leaf
      // descent pops `untried` without popping `prepared` in lockstep, and
      // its evaluator batches child scoring anyway.
      if (!leaf_mode) maybe_prepare_root(*tree);

      const std::int64_t budget =
          options_.decay_budget
              ? std::max(options_.initial_budget / depth, options_.min_budget)
              : options_.initial_budget;
      obs::ScopedTimer decision_span("mcts.decision", "mcts");
      if (decision_span.active()) {
        decision_span.set_args(
            "\"depth\":" + std::to_string(depth) + ",\"budget\":" +
            std::to_string(budget) +
            (leaf_mode ? ",\"mode\":\"leaf\"" : ",\"mode\":\"serial\""));
      }
      const auto start = std::chrono::steady_clock::now();
      bool ran_any = false;
      const NodeId best =
          leaf_mode
              ? decide_leaf(*tree, budget, depth, exploration_c, deadline,
                            ran_any)
              : decide(*tree, budget, rng, exploration_c, deadline, ran_any);
      stats_.search_seconds += seconds_since(start);
      decision_span.finish();
      if (best == kNoNode) {
        if (deadline && !ran_any) {
          // Anytime degradation: the deadline expired before a single
          // iteration finished — take the fallback heuristic's move.
          ++stats_.degradations;
          apply_action(env, options_.fallback->pick(env, rng));
        } else {
          // Budget too small to expand anything: fall back to the guide's
          // top untried choice.
          apply_action(env, tree->node(tree->root()).untried.front().first);
        }
        tree.reset();
      } else {
        apply_action(env, tree->node(best).action_from_parent);
        const bool reuse =
            leaf_mode ? options_.leaf_tree_reuse : options_.reuse_tree;
        if (reuse) {
          tree = tree->reroot(best);
        } else {
          tree.reset();
        }
      }
      ++stats_.decisions;
      ++depth;
    }
  } catch (const JobAbortedError&) {
    // The REAL trajectory exhausted a retry budget: surface the stats the
    // caller will want in the error report, then let the abort propagate.
    record_fault_stats();
    fold_rollout_cache_stats();
    fold_forward_stats();
    if (obs::enabled()) obs::count("mcts.job_aborts");
    flush_metrics();
    throw;
  }
  record_fault_stats();
  fold_rollout_cache_stats();
  fold_forward_stats();
  flush_metrics();
  return env.cluster().schedule();
}

}  // namespace spear
