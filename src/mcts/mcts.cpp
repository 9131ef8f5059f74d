#include "mcts/mcts.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "common/stats.h"
#include "obs/obs.h"

namespace spear {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Independent deterministic RNG stream for one (decision, iteration) slot
/// of the leaf-parallel search, keyed by the GLOBAL iteration index.  Two
/// SplitMix64 passes decorrelate
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
/// descent fills the descent fields under virtual loss, the worker phase
/// the child/rollout results, and backup consumes everything, in slot
/// order.  Jobs are reused tick after tick:
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
  /// Nonterminal kExpand with the state cache on: the child's canonical
  /// key, moved into its rollout when the guide is pure.
  StateKey key;
  /// Pure guide only: each state the rollout asked the guide about, with
  /// the priors it gave there, in step order; published at backup.
  std::vector<std::pair<StateKey, Priors>> misses;
  /// The job's search counters, folded into stats_ at backup in slot order.
  MctsScheduler::Stats counts;

  /// The new child's ordering: from the state cache or its own first
  /// rollout step (worker side), else from the evaluator.
  Priors priors;
  // Evaluation-queue bookkeeping (coordinator side).
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
    counts = {};
    priors.clear();
  }
};

/// One rollout the worker phase advances in lockstep with the tick's other
/// rollouts.
struct ActiveRollout {
  /// guide_row of a step that takes a cached action.
  static constexpr std::size_t kCachedStep = static_cast<std::size_t>(-1);

  std::size_t slot;
  SchedulingEnv env;
  // Pure guide only: the current state's key and the state cache's entry
  // there (null on a miss), probed once when the state is reached.
  StateKey key;
  const StateEntry* entry = nullptr;
  /// This step's state is the job's new child, which takes the priors of
  /// this step's row.
  bool child_step = false;
  // This step's plan: the pick of this guide row, or `action` as is.
  std::size_t guide_row = 0;
  int action = 0;
};

/// The worker phase's rollout scratch, reused across the ticks of a
/// decision.
struct WorkerScratch {
  std::vector<ActiveRollout> active;
  // One step's guide rows: every active rollout without a pure guide, one
  // per distinct missed key with one.
  std::vector<const SchedulingEnv*> envs;
  std::vector<Rng*> rngs;
  std::vector<int> picks;                 ///< pick_batch's answers
  std::vector<Priors> priors;             ///< pure guide: the rows' priors
  std::vector<const StateKey*> row_keys;  ///< pure guide: each row's key
  std::vector<std::size_t> row_last;  ///< each row's last user in `active`
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
// Every job's counters reach stats_ through operator+=, which sums only the
// listed fields: a counter missing here would be dropped without an error.
static_assert(sizeof(MctsScheduler::Stats) ==
                  std::size(kStatsCounts) * sizeof(std::int64_t) +
                      sizeof(double) + sizeof(std::vector<std::int64_t>),
              "kStatsCounts must list every int64_t counter of Stats");

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
  // A decision root is usually the previous decision's chosen child, whose
  // priors the state cache already holds.
  const StateEntry* cached = nullptr;
  if (state_cache_) {
    StateKey key;
    env.append_canonical_key(key);
    cached = state_cache_->find(key);
  }
  root.untried = cached ? cached->priors : guide_->action_weights(env);
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
  // The arena only grows in the backup loop below: descents and the worker
  // phase address nodes by id while it is fixed.  The serial search is one
  // slot per tick, drawing from the schedule-wide `rng`; leaf mode ticks
  // leaf_batch_size slots (see MctsOptions).
  const bool serial = serial_search();
  // A pure guide's rollouts probe and fill the state cache, and a new
  // child's own first rollout step gives it its priors.
  SharedActionCache* const cache = state_cache_.get();
  const bool pure = cache && cache->kept_by_pure_guide();
  const std::int64_t per_tick =
      std::min<std::int64_t>(serial ? 1 : options_.leaf_batch_size, budget);

  // One sequential descent under virtual loss, reserving `job`: slot i's
  // job depends only on the i-1 descents before it.
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
  // in leaf mode, streams keyed by the global iteration index.
  std::vector<Rng> streams(serial ? 0 : jobs.size());
  std::vector<Rng*> slot_rngs(jobs.size(), &rng);
  for (std::size_t s = 0; s < streams.size(); ++s) slot_rngs[s] = &streams[s];
  WorkerScratch ws;
  std::vector<const SchedulingEnv*> pending;
  std::vector<LeafJob*> pending_jobs;

  // Folds the fault events between the job's tree node and `last`, the
  // last state the job reached.
  const auto count_faults = [&](LeafJob& job, const SchedulingEnv& last) {
    const EnvFaultStats& from = tree.node(job.node).state.fault_stats();
    const EnvFaultStats& to = last.fault_stats();
    job.counts.search_failures += to.failures - from.failures;
    job.counts.search_retries += to.retries - from.retries;
  };
  // Ends rollout `a` at `value`.
  const auto retire = [&](const ActiveRollout& a, double value) {
    LeafJob& job = jobs[a.slot];
    job.value = value;
    ++job.counts.rollouts;
    count_faults(job, a.env);
  };
  // Keys `a`'s current state and probes the state cache there.
  const auto reach = [&](ActiveRollout& a) {
    a.key.clear();
    a.env.append_canonical_key(a.key);
    a.entry = cache->find(a.key);
  };

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

    // --- Worker phase: construct child states, then advance all of the
    // tick's rollouts in lockstep so batch-capable guides fuse one forward
    // per rollout STEP instead of one per rollout state. ---
    {
      obs::ScopedTimer workers_span("mcts.leaf.workers", "mcts",
                                    /*with_trace=*/!serial);
      ws.active.clear();
      for (std::size_t s = 0; s < tick_jobs; ++s) {
        LeafJob& job = jobs[s];
        if (job.kind == LeafJob::Kind::kTerminal) continue;
        const SearchNode& node = tree.node(job.node);
        ++job.counts.env_copies;
        if (job.kind == LeafJob::Kind::kRollout) {
          ActiveRollout& a = ws.active.emplace_back(s, node.state);
          if (pure) reach(a);
          continue;
        }
        SchedulingEnv& child = job.child.emplace(node.state);
        try {
          child.apply(job.action);
        } catch (const JobAbortedError&) {
          // Fault mode: this action path exhausts a retry budget.  Keep the
          // node (with its fixed penalty) so the search learns to avoid it.
          job.aborted = true;
          ++job.counts.search_aborts;
        }
        job.terminal = job.aborted || child.done();
        if (job.terminal) {
          job.value = job.aborted ? abort_value_
                                  : -static_cast<double>(child.makespan());
          count_faults(job, child);
          continue;
        }
        if (obs::enabled()) job.enqueued = std::chrono::steady_clock::now();
        ++job.counts.env_copies;
        ActiveRollout& a = ws.active.emplace_back(s, child);
        // Capacity 0 pays nothing for a key.  The child's key is probed
        // once: a hit gives its priors (and a pure guide's rollout its
        // first step); a pure guide's miss makes the child a row of its
        // own first rollout step; any other miss goes to the evaluator.
        if (!cache) continue;
        child.append_canonical_key(job.key);
        const StateEntry* hit = cache->find(job.key);
        if (hit) {
          ++job.counts.tt_hits;
          job.priors = hit->priors;
        } else {
          ++job.counts.tt_misses;
        }
        if (pure) {
          a.key = std::move(job.key);
          a.entry = hit;
          a.child_step = !hit;
        }
      }

      while (!ws.active.empty()) {
        // Plan the step.  With a pure guide the entry found when the state
        // was reached decides it: a known makespan ends the rollout there,
        // cached priors give the action, and a miss becomes a guide row,
        // which the step's other misses with an equal key share.  Any
        // other guide gives every rollout its own pick_batch row.
        // Finished rollouts are compacted away in the same pass, before a
        // row's pointers are taken, so no row moves until the step is
        // applied.
        ws.envs.clear();
        ws.rngs.clear();
        ws.row_keys.clear();
        ws.row_last.clear();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < ws.active.size(); ++i) {
          if (kept != i) ws.active[kept] = std::move(ws.active[i]);
          ActiveRollout& a = ws.active[kept];
          if (a.entry) {
            if (a.entry->makespan != StateEntry::kUnknownMakespan) {
              ++jobs[a.slot].counts.rollout_memo_hits;
              retire(a, -static_cast<double>(a.entry->makespan));
              continue;
            }
            ++jobs[a.slot].counts.rollout_cache_hits;
            a.guide_row = ActiveRollout::kCachedStep;
            a.action = a.entry->priors.front().first;
          } else {
            a.guide_row = ws.envs.size();
            if (pure) {
              const auto row = std::find_if(
                  ws.row_keys.begin(), ws.row_keys.end(),
                  [&a](const StateKey* k) { return *k == a.key; });
              a.guide_row =
                  static_cast<std::size_t>(row - ws.row_keys.begin());
            }
            if (a.guide_row == ws.envs.size()) {
              ws.envs.push_back(&a.env);
              ws.rngs.push_back(slot_rngs[a.slot]);
              ws.row_keys.push_back(&a.key);
              ws.row_last.push_back(kept);
            } else {
              ws.row_last[a.guide_row] = kept;
            }
          }
          ++kept;
        }
        ws.active.erase(ws.active.begin() + static_cast<std::ptrdiff_t>(kept),
                        ws.active.end());
        if (!ws.envs.empty()) {
          if (pure) {
            ws.priors =
                guide_->action_weights_batch(ws.envs.data(), ws.envs.size());
          } else {
            ws.picks.resize(ws.envs.size());
            guide_->pick_batch(ws.envs.data(), ws.envs.size(), ws.rngs.data(),
                               ws.picks.data());
          }
        }

        // Apply the step; with a pure guide a rollout that goes on keys
        // and probes its new state.
        kept = 0;
        for (std::size_t i = 0; i < ws.active.size(); ++i) {
          ActiveRollout& a = ws.active[i];
          LeafJob& job = jobs[a.slot];
          if (a.guide_row != ActiveRollout::kCachedStep) {
            if (pure) {
              // A row's last user takes it; earlier users (equal keys)
              // copy it.
              Priors& row = ws.priors[a.guide_row];
              a.action = row.front().first;
              if (a.child_step) job.priors = row;
              if (i == ws.row_last[a.guide_row]) {
                job.misses.emplace_back(std::move(a.key), std::move(row));
              } else {
                job.misses.emplace_back(std::move(a.key), row);
              }
              ++job.counts.rollout_cache_misses;
            } else {
              a.action = ws.picks[a.guide_row];
            }
          }
          a.child_step = false;
          try {
            a.env.apply(a.action);
          } catch (const JobAbortedError&) {
            // Penalize the abort, never kill the search.
            ++job.counts.search_aborts;
            retire(a, abort_value_);
            continue;
          }
          if (a.env.done()) {
            retire(a, -static_cast<double>(a.env.makespan()));
            continue;
          }
          if (pure) reach(a);
          if (kept != i) ws.active[kept] = std::move(a);
          ++kept;
        }
        ws.active.erase(ws.active.begin() + static_cast<std::ptrdiff_t>(kept),
                        ws.active.end());
      }
    }

    // --- Evaluator: ONE fused guide forward for the new leaf states still
    // without priors (none with a pure guide), whose priors then enter the
    // state cache. ---
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
        if (job.priors.empty()) {
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
          if (cache) {
            cache->insert(std::move(pending_jobs[i]->key),
                          StateEntry{lists[i], StateEntry::kUnknownMakespan});
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
      stats_ += job.counts;
      if (pure) {
        // Publish the job's missed states.  With faults off no rollout
        // aborts, so one that asked the guide finished at -value.
        const Time makespan = options_.faults
                                  ? StateEntry::kUnknownMakespan
                                  : static_cast<Time>(-job.value);
        for (auto& [key, priors] : job.misses) {
          cache->insert(std::move(key),
                        StateEntry{std::move(priors), makespan});
        }
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

Schedule MctsScheduler::schedule(const Dag& dag,
                                 const ResourceVector& capacity) {
  EnvOptions env_options;
  env_options.max_ready = ready_window(*guide_, dag);
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

  // The state cache is built here, fresh per schedule — its keys do not
  // encode the DAG identity — in every search configuration (see
  // transposition_capacity), and offered to the guide.  Its priors serve
  // every guide; rollouts use it only when the guide marked it pure (the
  // mark is on the cache, so it survives forwarding decorators).  Forward
  // tallies are zeroed so the end-of-schedule fold reports THIS schedule
  // only.
  if (options_.transposition_capacity > 0) {
    state_cache_ =
        std::make_shared<SharedActionCache>(options_.transposition_capacity);
    guide_->share_rollout_cache(state_cache_);
  }
  guide_->reset_forward_stats();

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
  // forward tallies accumulate across every decision and are folded once.
  // Then one registry push — hot loops only touch stats_.
  const auto finish = [this, &env]() {
    if (options_.faults) {
      stats_.task_failures = env.fault_stats().failures;
      stats_.task_retries = env.fault_stats().retries;
    }
    stats_.guide_forwards = guide_->forward_calls();
    stats_.guide_forward_rows = guide_->forward_rows();
    if (const std::vector<std::int64_t>* hist = guide_->forward_hist()) {
      stats_.batch_rows_hist = *hist;
    }
    state_cache_.reset();
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
        env.apply(root.untried.front().first);
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
          env.apply(fallback_.pick(env, rng));
        } else {
          // Budget too small to expand anything: fall back to the guide's
          // top untried choice.
          env.apply(tree->node(tree->root()).untried.front().first);
        }
        tree.reset();
      } else {
        env.apply(tree->node(best).action_from_parent);
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
