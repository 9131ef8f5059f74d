#include "mcts/mcts.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/stats.h"
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

/// One in-flight descent of an evaluator tick (DESIGN.md §11).  The
/// coordinator fills the descent fields under virtual loss; a worker thread
/// fills the child/rollout results (each worker owns a disjoint contiguous
/// slot range, so jobs are written race-free); the coordinator consumes
/// everything at backup, in slot order.  Jobs are reused tick after tick:
/// reset() clears every field but keeps the buffers' capacity.
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
  StateKey key;  ///< canonical key (nonterminal kExpand, caches armed)
  /// Rollout cache only: each state the rollout asked the guide about, with
  /// the action picked there, in step order; published at backup.
  std::vector<std::pair<StateKey, int>> misses;

  // Per-job telemetry, folded into Stats at backup in slot order so the
  // totals are independent of the worker partition.
  std::int64_t env_copies = 0;
  std::int64_t rollouts = 0;
  std::int64_t fault_failures = 0;
  std::int64_t fault_retries = 0;
  std::int64_t fault_aborts = 0;
  std::int64_t cache_hits = 0;
  std::int64_t memo_hits = 0;

  // Evaluation-queue bookkeeping (coordinator side).
  Priors priors;  ///< new child's ordering
  std::chrono::steady_clock::time_point enqueued;  ///< obs: queue wait

  void reset() {
    kind = Kind::kTerminal;
    node = kNoNode;
    action = 0;
    path.clear();
    child.reset();
    aborted = false;
    terminal = false;
    value = 0.0;
    key.clear();
    misses.clear();
    env_copies = rollouts = fault_failures = fault_retries = fault_aborts =
        cache_hits = memo_hits = 0;
    priors.clear();
  }
};

/// One rollout a worker advances in lockstep with its other rollouts.
struct ActiveRollout {
  std::size_t slot;
  SchedulingEnv env;
  EnvFaultStats pre;
  // Rollout cache only (see schedule_env): this step's key and plan.
  bool keyed_start = false;  ///< on a new child's state, keyed in job.key
  StateKey key;              ///< the current state's key otherwise
  bool cached = false;       ///< the step takes the cached `action`...
  int action = 0;
  std::size_t guide_row = 0;  ///< ...or the pick of this pick_batch row
};

/// A worker's rollout scratch, reused across the ticks of a decision.
struct WorkerScratch {
  std::vector<ActiveRollout> active;
  // One step's pick_batch rows: every active rollout with the cache off,
  // one per distinct missed key with it on.
  std::vector<const SchedulingEnv*> envs;
  std::vector<Rng*> rngs;
  std::vector<int> picks;
  std::vector<const StateKey*> row_keys;  ///< rollout cache: each row's key
};

/// Every int64_t Stats counter with its metric name, in declaration order.
struct NamedCount {
  const char* name;
  std::int64_t MctsScheduler::Stats::*field;
};
constexpr NamedCount kStatsCounts[] = {
    {"mcts.decisions", &MctsScheduler::Stats::decisions},
    {"mcts.forced_decisions", &MctsScheduler::Stats::forced_decisions},
    {"mcts.iterations", &MctsScheduler::Stats::iterations},
    {"mcts.rollouts", &MctsScheduler::Stats::rollouts},
    {"mcts.nodes_expanded", &MctsScheduler::Stats::nodes_expanded},
    {"mcts.env_copies", &MctsScheduler::Stats::env_copies},
    {"mcts.deadline_cutoffs", &MctsScheduler::Stats::deadline_cutoffs},
    {"mcts.degradations", &MctsScheduler::Stats::degradations},
    {"mcts.task_failures", &MctsScheduler::Stats::task_failures},
    {"mcts.task_retries", &MctsScheduler::Stats::task_retries},
    {"mcts.search_failures", &MctsScheduler::Stats::search_failures},
    {"mcts.search_retries", &MctsScheduler::Stats::search_retries},
    {"mcts.search_aborts", &MctsScheduler::Stats::search_aborts},
    {"mcts.batched_evals", &MctsScheduler::Stats::batched_evals},
    {"mcts.batched_rows", &MctsScheduler::Stats::batched_rows},
    {"mcts.guide_forwards", &MctsScheduler::Stats::guide_forwards},
    {"mcts.guide_forward_rows", &MctsScheduler::Stats::guide_forward_rows},
    {"mcts.leaf_ticks", &MctsScheduler::Stats::leaf_ticks},
    {"mcts.tt_hits", &MctsScheduler::Stats::tt_hits},
    {"mcts.tt_misses", &MctsScheduler::Stats::tt_misses},
    {"mcts.vloss_collisions", &MctsScheduler::Stats::vloss_collisions},
    {"mcts.rollout_cache_hits", &MctsScheduler::Stats::rollout_cache_hits},
    {"mcts.rollout_cache_misses",
     &MctsScheduler::Stats::rollout_cache_misses},
    {"mcts.rollout_memo_hits", &MctsScheduler::Stats::rollout_memo_hits},
};

}  // namespace

void MctsScheduler::Stats::for_each_count(
    const std::function<void(const char* name, std::int64_t value)>& f)
    const {
  for (const NamedCount& c : kStatsCounts) f(c.name, this->*c.field);
}

MctsScheduler::Stats& MctsScheduler::Stats::operator+=(const Stats& other) {
  for (const NamedCount& c : kStatsCounts) this->*c.field += other.*c.field;
  search_seconds += other.search_seconds;
  hist_add(batch_rows_hist, other.batch_rows_hist);
  return *this;
}

Time greedy_makespan_estimate(const SchedulingEnv& env) {
  HeuristicDecisionPolicy greedy;
  Rng unused(0);  // HeuristicDecisionPolicy::pick is deterministic
  SchedulingEnv copy = env;
  try {
    return run_greedy(copy, [&](const SchedulingEnv& state) {
      return greedy.pick(state, unused);
    });
  } catch (const JobAbortedError&) {
    // Fault mode: the greedy probe aborted — any positive scale works.
    return env.dag().total_runtime() + 1;
  }
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

SearchTree MctsScheduler::make_tree(const SchedulingEnv& env) {
  SearchTree tree(env);
  SearchNode& root = tree.node(tree.root());
  root.untried = guide_->action_weights(env);
  if (root.untried.empty()) {
    throw std::logic_error("MctsScheduler: no valid action at decision root");
  }
  return tree;
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

NodeId MctsScheduler::decide(SearchTree& tree, std::int64_t budget,
                             std::int64_t decision_depth, Rng& rng,
                             double exploration_c, const Deadline& deadline,
                             bool& ran_any) {
  ran_any = false;
  // The arena only grows in the backup loop below, after the workers have
  // joined: descents and workers address nodes by id while it is fixed.
  const auto workers = static_cast<std::int64_t>(worker_guides_.size());
  // The serial search is one slot per tick, drawing from the schedule-wide
  // `rng`.  Leaf mode uses the absolute, worker-count-independent tick size
  // (see MctsOptions): the same seed and budget descend the same tree no
  // matter how many workers split the slots.
  const bool serial = serial_search();
  const std::int64_t per_tick =
      std::min<std::int64_t>(serial ? 1 : options_.leaf_batch_size, budget);

  // One sequential descent under virtual loss, reserving `job`.  Descents
  // run on the coordinator thread — selection is a few float compares per
  // level, negligible next to the network forwards the tick parallelizes —
  // which is what keeps leaf mode deterministic: slot i's job depends only
  // on the i-1 descents before it, never on OS timing.
  const auto descend = [&](LeafJob& job) {
    job.reset();
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
  };

  // Tick buffers, sized once per decision and reused by every tick.
  std::vector<LeafJob> jobs(static_cast<std::size_t>(per_tick));
  // Per-slot rollout RNGs: the schedule-wide `rng` in the serial search;
  // in leaf mode, streams keyed by the global iteration index so they do
  // not depend on the worker partition.
  std::vector<Rng> streams(serial ? 0 : jobs.size());
  std::vector<Rng*> slot_rngs(jobs.size(), &rng);
  for (std::size_t s = 0; s < streams.size(); ++s) slot_rngs[s] = &streams[s];
  std::vector<WorkerScratch> scratch(static_cast<std::size_t>(workers));
  std::vector<const SchedulingEnv*> pending;
  std::vector<LeafJob*> pending_jobs;

  std::int64_t completed = 0;
  while (completed < budget) {
    if (deadline_reached(deadline)) {
      ++stats_.deadline_cutoffs;
      break;
    }
    const std::int64_t slots = std::min(per_tick, budget - completed);
    // The serial search ticks once per iteration: it feeds the span
    // histograms but writes no per-iteration trace events.
    obs::ScopedTimer tick_span("mcts.leaf.tick", "mcts",
                               /*with_trace=*/!serial);
    if (tick_span.active()) {
      tick_span.set_args("\"decision\":" + std::to_string(decision_depth) +
                         ",\"slots\":" + std::to_string(slots));
    }

    // --- Descend: reserve one leaf per slot under virtual loss. ---
    // Each phase below has its own span (histogram always, trace events
    // only in leaf mode, like the tick span); with obs off a span is one
    // relaxed load and reads no clock.
    const auto tick_jobs = static_cast<std::size_t>(slots);
    {
      obs::ScopedTimer descend_span("mcts.leaf.descend", "mcts",
                                    /*with_trace=*/!serial);
      for (std::size_t s = 0; s < tick_jobs; ++s) descend(jobs[s]);
      if (!serial) {
        for (std::size_t s = 0; s < tick_jobs; ++s) {
          streams[s] = Rng(leaf_stream_seed(
              options_.seed, static_cast<std::uint64_t>(decision_depth),
              static_cast<std::uint64_t>(completed) + s));
        }
      }
    }

    // --- Workers: construct child states, then advance all of their
    // rollouts in lockstep so batch-capable guides fuse one forward per
    // rollout STEP instead of one per rollout state. ---
    const auto worker_body = [&](std::size_t w) {
      const auto lo = static_cast<std::size_t>(
          slots * static_cast<std::int64_t>(w) / workers);
      const auto hi = static_cast<std::size_t>(
          slots * (static_cast<std::int64_t>(w) + 1) / workers);
      if (lo >= hi) return;
      DecisionPolicy& guide = *worker_guides_[w];
      WorkerScratch& ws = scratch[w];

      ws.active.clear();
      for (std::size_t s = lo; s < hi; ++s) {
        LeafJob& job = jobs[s];
        if (job.kind == LeafJob::Kind::kTerminal) continue;
        const SearchNode& node = tree.node(job.node);
        if (job.kind == LeafJob::Kind::kRollout) {
          ++job.env_copies;
          ws.active.emplace_back(s, node.state, node.state.fault_stats());
          continue;
        }
        SchedulingEnv& child = job.child.emplace(node.state);
        ++job.env_copies;
        const EnvFaultStats pre = child.fault_stats();
        try {
          apply_action(child, job.action);
        } catch (const JobAbortedError&) {
          // Fault mode: this action path exhausts a retry budget.  Keep the
          // node (with its fixed penalty) so the search learns to avoid it.
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
          // Only the state caches read the key: capacity 0 pays nothing
          // for it.
          if (transpositions_) child.append_canonical_key(job.key);
          if (obs::enabled()) {
            job.enqueued = std::chrono::steady_clock::now();
          }
          ++job.env_copies;
          ws.active.emplace_back(s, child, child.fault_stats(),
                                 rollout_cache_ != nullptr);
        }
      }

      // Ends rollout `a`: folds its fault deltas.
      const auto retire = [&](ActiveRollout& a, LeafJob& job) {
        job.fault_failures += a.env.fault_stats().failures - a.pre.failures;
        job.fault_retries += a.env.fault_stats().retries - a.pre.retries;
        ++job.rollouts;
      };

      ws.envs.clear();
      while (!ws.active.empty()) {
        if (rollout_cache_) {
          // One probe per rollout decides its step: a known makespan ends
          // the rollout there, a cached action is taken as is, and a miss
          // becomes a pick_batch row, which the step's other misses with an
          // equal key share.  Finished rollouts are compacted away in the
          // same pass, before a row's pointers are taken, so no row moves
          // again until the step is applied.
          ws.envs.clear();
          ws.rngs.clear();
          ws.row_keys.clear();
          std::size_t kept = 0;
          for (std::size_t i = 0; i < ws.active.size(); ++i) {
            if (kept != i) ws.active[kept] = std::move(ws.active[i]);
            ActiveRollout& a = ws.active[kept];
            LeafJob& job = jobs[a.slot];
            if (!a.keyed_start) {
              a.key.clear();
              a.env.append_canonical_key(a.key);
            }
            const StateKey& key = a.keyed_start ? job.key : a.key;
            RolloutStep step;
            a.cached = rollout_cache_->find(key, &step);
            if (a.cached && step.makespan != RolloutStep::kUnknownMakespan) {
              job.value = -static_cast<double>(step.makespan);
              ++job.memo_hits;
              retire(a, job);
              continue;
            }
            if (a.cached) {
              a.action = step.action;
              ++job.cache_hits;
            } else {
              a.guide_row = 0;
              while (a.guide_row < ws.row_keys.size() &&
                     *ws.row_keys[a.guide_row] != key) {
                ++a.guide_row;
              }
              if (a.guide_row == ws.row_keys.size()) {
                ws.row_keys.push_back(&key);
                ws.envs.push_back(&a.env);
                ws.rngs.push_back(slot_rngs[a.slot]);
              }
            }
            ++kept;
          }
          ws.active.erase(ws.active.begin() + static_cast<std::ptrdiff_t>(kept),
                          ws.active.end());
          if (!ws.envs.empty()) {
            ws.picks.resize(ws.envs.size());
            guide.pick_batch(ws.envs.data(), ws.envs.size(), ws.rngs.data(),
                             ws.picks.data());
          }
        } else {
          // The rollout envs only move when finished rollouts are compacted
          // away, so the row pointers are rebuilt only then.
          if (ws.envs.size() != ws.active.size()) {
            ws.envs.clear();
            ws.rngs.clear();
            for (ActiveRollout& a : ws.active) {
              ws.envs.push_back(&a.env);
              ws.rngs.push_back(slot_rngs[a.slot]);
            }
            ws.picks.resize(ws.active.size());
          }
          guide.pick_batch(ws.envs.data(), ws.active.size(), ws.rngs.data(),
                           ws.picks.data());
        }
        std::size_t kept = 0;
        for (std::size_t i = 0; i < ws.active.size(); ++i) {
          ActiveRollout& a = ws.active[i];
          LeafJob& job = jobs[a.slot];
          int action = 0;
          if (!rollout_cache_) {
            action = ws.picks[i];
          } else if (a.cached) {
            action = a.action;
          } else {
            action = ws.picks[a.guide_row];
            job.misses.emplace_back(
                a.keyed_start ? job.key : std::move(a.key), action);
          }
          a.keyed_start = false;
          bool aborted = false;
          try {
            apply_action(a.env, action);
          } catch (const JobAbortedError&) {
            aborted = true;
          }
          if (aborted) {
            // Penalize the abort, never kill the search.
            job.value = abort_value_;
            ++job.fault_aborts;
            retire(a, job);
          } else if (a.env.done()) {
            job.value = -static_cast<double>(a.env.makespan());
            retire(a, job);
          } else {
            if (kept != i) ws.active[kept] = std::move(a);
            ++kept;
          }
        }
        ws.active.erase(ws.active.begin() + static_cast<std::ptrdiff_t>(kept),
                        ws.active.end());
      }
    };
    // Worker 0 runs on this thread either way (parallel_for runs index 0 on
    // its caller), so guide_'s weights and workspace stay with the thread
    // that runs the evaluator's forward below.  One worker has no pool.
    {
      obs::ScopedTimer workers_span("mcts.leaf.workers", "mcts",
                                    /*with_trace=*/!serial);
      if (pool_) {
        pool_->parallel_for(static_cast<std::size_t>(workers), worker_body);
      } else {
        worker_body(0);
      }
    }

    // --- Evaluator: drain the queue of new leaf states through the
    // transposition cache, then ONE fused guide forward for the misses. ---
    {
      obs::ScopedTimer drain_span("mcts.evaluator.drain", "mcts",
                                  /*with_trace=*/!serial);
      const bool obs_on = drain_span.active();
      const auto drain_start = obs_on ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point();
      pending.clear();
      pending_jobs.clear();
      for (std::size_t s = 0; s < tick_jobs; ++s) {
        LeafJob& job = jobs[s];
        if (job.kind != LeafJob::Kind::kExpand || job.terminal) continue;
        if (obs_on) {
          obs::observe(
              "mcts.evaluator.queue_wait_ms",
              std::chrono::duration<double, std::milli>(drain_start -
                                                        job.enqueued)
                  .count());
        }
        if (transpositions_ && transpositions_->find(job.key, &job.priors)) {
          ++stats_.tt_hits;
        } else {
          // No cache (capacity 0) is not "all misses": the probe counters
          // only track a cache that is actually in play.
          if (transpositions_) ++stats_.tt_misses;
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
          if (transpositions_) {
            transpositions_->insert(pending_jobs[i]->key, lists[i]);
          }
          pending_jobs[i]->priors = std::move(lists[i]);
        }
      }
    }

    // --- Backup, in slot order (the deterministic tie-breaking order),
    // releasing each descent's virtual loss. ---
    obs::ScopedTimer backup_span("mcts.leaf.backup", "mcts",
                                 /*with_trace=*/!serial);
    for (std::size_t s = 0; s < tick_jobs; ++s) {
      LeafJob& job = jobs[s];
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
      stats_.rollout_cache_hits += job.cache_hits;
      stats_.rollout_cache_misses +=
          static_cast<std::int64_t>(job.misses.size());
      stats_.rollout_memo_hits += job.memo_hits;
      if (rollout_cache_) {
        // Publish the job's missed states.  With faults off no rollout
        // aborts, so one that asked the guide finished at -value.
        const Time makespan = options_.faults
                                  ? RolloutStep::kUnknownMakespan
                                  : static_cast<Time>(-job.value);
        for (auto& [key, action] : job.misses) {
          rollout_cache_->insert(std::move(key), RolloutStep{action, makespan});
        }
      }
      if (options_.faults) {
        stats_.search_failures += job.fault_failures;
        stats_.search_retries += job.fault_retries;
        stats_.search_aborts += job.fault_aborts;
      }
      ++stats_.iterations;
      tree.backpropagate(backprop_from, job.value);
      for (NodeId id : job.path) --tree.node(id).vloss;
    }
    backup_span.finish();

    ++stats_.leaf_ticks;
    completed += slots;
    ran_any = true;
  }
  return best_root_child(tree);
}

void MctsScheduler::ensure_workers() {
  if (!worker_guides_.empty()) return;
  // Worker 0 is the guide itself; only workers 1..n-1 run private clones.
  // An uncloneable guide simply searches on one worker — results do not
  // depend on the worker count, so this is the same search.
  worker_guides_.push_back(guide_);
  for (int w = 1; w < options_.num_threads; ++w) {
    auto clone = guide_->clone();
    if (!clone) break;
    worker_guides_.push_back(std::move(clone));
  }
  // The coordinator runs worker 0 itself (parallel_for's index 0), so the
  // pool holds only workers 1..n-1; a single worker needs no pool at all.
  if (worker_guides_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(worker_guides_.size() - 1);
  }
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

  ensure_workers();
  // The state caches are built here, fresh per schedule — their keys do not
  // encode the DAG identity — in every search configuration (see
  // transposition_capacity).  The rollout cache is offered to every worker
  // guide and armed only when a guide marked it pure (the mark is on the
  // cache, so it survives forwarding decorators): sampling and heuristic
  // guides search without it.  Forward tallies are zeroed so the
  // end-of-schedule fold reports THIS schedule only.
  std::shared_ptr<SharedActionCache> offered;
  if (options_.transposition_capacity > 0) {
    transpositions_ =
        std::make_unique<TranspositionCache>(options_.transposition_capacity);
    offered =
        std::make_shared<SharedActionCache>(options_.transposition_capacity);
  }
  for (const auto& g : worker_guides_) {
    if (offered) g->share_rollout_cache(offered);
    g->reset_forward_stats();
  }
  if (offered && offered->kept_by_pure_guide()) {
    rollout_cache_ = std::move(offered);
  }

  // Anytime mode: every decision gets its own wall-clock deadline, started
  // BEFORE the root guide evaluation so an expensive guide counts against
  // the budget it actually consumes.
  const auto make_deadline = [this]() -> Deadline {
    if (options_.time_budget_ms <= 0) return std::nullopt;
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(options_.time_budget_ms);
  };
  // Runs once whether the schedule returns or throws.  Real-trajectory
  // fault counters come from the ONE persistent env the search steps (the
  // speculative search_* counters are added as the search runs).  Guide
  // forward tallies accumulate across every decision and are folded once
  // per distinct guide — worker 0 is guide_ itself, so worker_guides_ lists
  // each once.  Then one registry push — hot loops only touch stats_.
  const auto finish = [this, &env]() {
    if (options_.faults) {
      stats_.task_failures = env.fault_stats().failures;
      stats_.task_retries = env.fault_stats().retries;
    }
    for (const auto& g : worker_guides_) {
      stats_.guide_forwards += g->forward_calls();
      stats_.guide_forward_rows += g->forward_rows();
      if (const std::vector<std::int64_t>* hist = g->forward_hist()) {
        hist_add(stats_.batch_rows_hist, *hist);
      }
    }
    transpositions_.reset();
    rollout_cache_.reset();
    if (!obs::enabled()) return;
    obs::count("mcts.schedules");
    stats_.for_each_count(
        [](const char* name, std::int64_t value) { obs::count(name, value); });
    obs::gauge("mcts.last_search_seconds", stats_.search_seconds);
  };

  const bool serial = serial_search();
  std::optional<SearchTree> tree;
  std::int64_t depth = 1;  // 1-based decision depth d_i of Eq. 4
  try {
    while (!env.done()) {
      const Deadline deadline = make_deadline();
      if (!tree) tree.emplace(make_tree(env));

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

      const std::int64_t budget =
          options_.decay_budget
              ? std::max(options_.initial_budget / depth, options_.min_budget)
              : options_.initial_budget;
      obs::ScopedTimer decision_span("mcts.decision", "mcts");
      if (decision_span.active()) {
        decision_span.set_args(
            "\"depth\":" + std::to_string(depth) + ",\"budget\":" +
            std::to_string(budget) +
            (serial ? ",\"mode\":\"serial\"" : ",\"mode\":\"leaf\""));
      }
      const auto start = std::chrono::steady_clock::now();
      bool ran_any = false;
      const NodeId best =
          decide(*tree, budget, depth, rng, exploration_c, deadline, ran_any);
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
        // The serial search builds a fresh tree for every decision.
        if (!serial && options_.leaf_tree_reuse) {
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
    if (obs::enabled()) obs::count("mcts.job_aborts");
    finish();
    throw;
  } catch (...) {
    finish();
    throw;
  }
  finish();
  return env.cluster().schedule();
}

}  // namespace spear
