// Budgeted Monte Carlo Tree Search for dependency-aware task scheduling
// (§III-C of the paper), with all of the paper's adaptations:
//
//  * Actions: schedule a fitting ready task, or process; processing always
//    advances to the next task completion ("no new information arrives
//    prior"), minimizing tree depth.
//  * Expansion filters: process is never expanded on an idle cluster, and
//    only tasks that can start before the earliest finish in the cluster
//    (i.e. tasks fitting the available resources right now) are expanded.
//  * Guided expansion & rollout: a DecisionPolicy orders untried actions
//    and drives rollouts.  Random = classic MCTS; the trained DRL policy =
//    Spear.
//  * Backpropagation keeps the maximum rollout value per node, with the
//    mean as the selection tiebreaker; node selection uses
//        UCB_i = max_i + c * sqrt(ln n / n_i)          (Eq. 5)
//    with c auto-scaled to a greedy-packing makespan estimate so the
//    exploration term is commensurate with the (negative-makespan)
//    exploitation score.
//  * Per-decision budget decay: budget(d) = max(b_initial / d, b_min)
//    where d is the 1-based decision depth (Eq. 4).
//
// The chosen action is applied to the persistent environment and search
// repeats until the DAG completes.
//
// One search engine runs every mode (DESIGN.md §6, §11): a shared tree
// searched in ticks — descents under virtual loss, worker threads that
// build children and advance rollouts, and a central evaluator that scores
// new leaves with one batched forward per tick through a transposition
// cache.  With a greedy guide every rollout step first probes the search's
// rollout cache, which holds the greedy action at each state a rollout
// asked the guide about and, with faults off, the makespan that rollout
// finished at: a known makespan ends the rollout there, a cached action
// skips the guide, and only the misses reach pick_batch.  The coordinator
// publishes a tick's new entries at backup, in slot order, so the workers
// only read the cache and every search counter but the forward tallies is
// independent of the worker count.  schedule_env() builds both caches (one
// StateCache class, mcts/transposition.h) fresh for each schedule and
// releases them when the schedule returns or throws; a hit is
// bitwise-identical to the forward or rollout it replaces.  The serial
// search (SearchMode::kRoot at num_threads == 1) is the one-slot
// configuration: ticks of one descent drawing from one schedule-wide RNG
// and a fresh tree per decision, which is exactly the paper's
// select-expand-rollout-backup loop.  Leaf mode (kLeaf, or any
// num_threads > 1) runs leaf_batch_size-slot ticks with per-slot RNG
// streams and reuses the chosen subtree; its results do not depend on the
// worker count.

// Anytime search (time_budget_ms > 0): every decision races a wall-clock
// deadline.  When the deadline expires mid-decision the best root action
// found so far is returned; when not even one iteration completes (e.g. an
// expensive guide evaluation already ate the budget) the decision degrades
// gracefully to a configurable fallback heuristic instead of stalling.
// Degradations and deadline cutoffs are counted in Stats.  Wall-clock
// budgets trade the bit-for-bit determinism of the iteration budget for
// bounded latency.
//
// Failure-aware search (options.faults set): the schedule is produced
// against the fault-injected environment — failed tasks are retried under
// options.retry, rollouts simulate the same deterministic fault trace, and
// a rollout that exhausts its retry budget scores a large penalty instead
// of aborting the search.  If the *real* trajectory exhausts a retry
// budget, JobAbortedError propagates to the caller.

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "fault/fault.h"
#include "mcts/policies.h"
#include "mcts/transposition.h"
#include "mcts/tree.h"
#include "sched/scheduler.h"

namespace spear {

/// Which configuration of the search engine a ONE-thread scheduler runs;
/// at num_threads > 1 the search is always leaf mode and the two values
/// behave the same.
enum class SearchMode {
  /// The serial search (the paper's algorithm): one-slot ticks drawing from
  /// the schedule-wide RNG and a fresh tree per decision.
  kRoot,
  /// Leaf parallelism (DESIGN.md §11): leaf_batch_size descents per tick
  /// hold virtual loss, leaf states park in an evaluation queue that a
  /// central evaluator drains with ONE batched network forward per tick,
  /// and worker threads advance the parked rollouts in lockstep batches.
  /// Each slot draws from its own RNG stream, and the chosen subtree is
  /// reused across decisions (leaf_tree_reuse).
  kLeaf,
};

struct MctsOptions {
  std::int64_t initial_budget = 1000;  ///< b_initial of Eq. 4
  std::int64_t min_budget = 100;       ///< b_min of Eq. 4
  /// c = exploration_scale x greedy-packing makespan estimate.
  double exploration_scale = 1.0;
  std::uint64_t seed = 42;
  /// Display name ("MCTS" for the pure variant, "Spear" when DRL-guided).
  std::string name = "MCTS";
  /// Search threads.  1 (default) = the serial search (or one-thread leaf
  /// mode under SearchMode::kLeaf); N > 1 = leaf-parallel search on N
  /// workers.  Worker 0 runs the guide itself, workers 1..N-1 private
  /// clone()s; an uncloneable guide runs on one worker, which gives the
  /// same results.
  int num_threads = 1;

  /// Anytime wall-clock budget per decision, in milliseconds; 0 (default) =
  /// unlimited (the iteration budget alone governs, fully deterministic).
  std::int64_t time_budget_ms = 0;
  /// Fallback heuristic used when the deadline expires before a single
  /// iteration completes (anytime degradation).  Defaults to
  /// HeuristicDecisionPolicy (the CP x Tetris blend); construct it with
  /// b_level_urgency or tetris_alignment for a pure CP or Tetris fallback.
  std::shared_ptr<DecisionPolicy> fallback;

  /// Failure-aware scheduling: non-null = simulate (and search) under this
  /// fault injector with the retry policy below.
  std::shared_ptr<const FaultInjector> faults;
  RetryOptions retry;

  // --- Ablation knobs (the paper's design choices; defaults = paper). ---
  /// Eq. 5 backpropagation: exploit the MAX rollout value with the mean as
  /// tiebreaker.  false = classic mean-value UCB (ablation).
  bool max_backprop = true;
  /// Eq. 4 budget decay: budget(d) = max(b_initial/d, b_min).
  /// false = flat b_initial at every decision (ablation).
  bool decay_budget = true;

  // --- Leaf-parallel search (num_threads > 1 or kLeaf; DESIGN.md §11). ---
  /// kLeaf runs leaf mode even at num_threads == 1 (batched evaluation is a
  /// win on its own); kRoot keeps one thread serial.
  SearchMode search_mode = SearchMode::kRoot;
  /// Descents held in flight per evaluator tick (split across the workers;
  /// each tick is one descend -> evaluate -> backup round).  Deliberately
  /// NOT scaled by num_threads: tick size shapes the search (virtual-loss
  /// distortion, evaluator batch size), so keeping it absolute makes leaf
  /// results independent of the worker count.  Larger ticks batch better
  /// but hold more virtual loss concurrently; ticks never exceed the
  /// decision's remaining budget.
  int leaf_batch_size = 32;
  /// Max entries in each of the two state caches, in every search mode: the
  /// transposition cache and the rollout cache (armed for greedy guides
  /// only); 0 disables both (the paper's cache-less loop, one forward per
  /// rollout step).  Cached priors, greedy rollout actions and rollout
  /// makespans are bitwise-identical to fresh evaluations, so this is
  /// purely a throughput knob.
  std::size_t transposition_capacity = 8192;
  /// Leaf mode reuses the chosen subtree across decisions by default
  /// (SearchTree::reroot, §III-C: "the selected action will point to a
  /// child node which will become the new root node") — it compounds with
  /// the transposition cache.  The benches' --no-tree-reuse clears this.
  /// The serial search always builds a fresh tree per decision.
  bool leaf_tree_reuse = true;
};

class MctsScheduler : public Scheduler {
 public:
  /// `guide` steers expansion ordering and rollouts; nullptr = the classic
  /// uniform-random policy.
  explicit MctsScheduler(MctsOptions options,
                         std::shared_ptr<DecisionPolicy> guide = nullptr);

  std::string name() const override { return options_.name; }
  Schedule schedule(const Dag& dag, const ResourceVector& capacity) override;

  /// Searches from an EXISTING environment state instead of a fresh idle
  /// cluster — the residual-DAG re-search entry point of the online
  /// execution engine (DESIGN.md §14): the caller builds an env whose
  /// cluster already carries the still-running work
  /// (EnvOptions::initial_running) and whose DAG is the remaining tasks,
  /// and the search resumes from that occupancy.  schedule() is exactly
  /// schedule_env() over a freshly-constructed env, so the offline path is
  /// unchanged.  The env is taken by value: the search steps it to
  /// completion.  Returns the full schedule recorded by the env's cluster
  /// (preloaded tasks appear as placements at t = 0).
  Schedule schedule_env(SchedulingEnv env);

  /// Search telemetry for the most recent schedule() call.  Counters are
  /// folded in slot order at each tick's backup, so all but guide_forwards
  /// and guide_forward_rows (each worker batches its own rows) do not
  /// depend on the worker count; wall time is measured around the
  /// per-decision search only (tree setup + iterations), not around policy
  /// training or environment stepping outside the search.
  struct Stats {
    std::int64_t decisions = 0;       ///< scheduling decisions made
    std::int64_t forced_decisions = 0;  ///< decisions with one legal action
                                        ///< (taken without searching)
    std::int64_t iterations = 0;      ///< total MCTS iterations
    std::int64_t rollouts = 0;        ///< total simulated episodes
    std::int64_t nodes_expanded = 0;  ///< tree nodes created by expansion
    std::int64_t env_copies = 0;      ///< environment snapshots taken
    double search_seconds = 0.0;      ///< wall time inside the search
    std::int64_t deadline_cutoffs = 0;  ///< decisions truncated by the
                                        ///< anytime deadline
    std::int64_t degradations = 0;    ///< decisions that fell back to the
                                      ///< heuristic (no iteration finished)
    std::int64_t task_failures = 0;   ///< failed attempts on the real
                                      ///< trajectory (fault mode)
    std::int64_t task_retries = 0;    ///< retries on the real trajectory
    // Fault events observed INSIDE the search (expansion steps + rollouts)
    // — the speculative counterpart of task_failures/task_retries above.
    std::int64_t search_failures = 0;  ///< failed attempts in search states
    std::int64_t search_retries = 0;   ///< retries in search states
    std::int64_t search_aborts = 0;    ///< simulated trajectories that
                                       ///< exhausted the retry budget
    // Batched-evaluation telemetry: the central evaluator's queue drains
    // that reached the guide (ticks whose new leaves all hit the
    // transposition cache issue none).
    std::int64_t batched_evals = 0;  ///< fused batch forwards issued
    std::int64_t batched_rows = 0;   ///< states scored by those batches
                                     ///< (rows per eval = batched_rows /
                                     ///< batched_evals)
    // Physical forward telemetry, folded from the guides once per
    // schedule(): every PRIVATE-weights kernel invocation the guide
    // policies executed (evaluator batches AND one-row calls — decision-root
    // priors, one-slot rollout steps), with its row count.  This is the
    // denominator batch occupancy is measured against; batched_evals above
    // only counts the evaluator's calls.
    std::int64_t guide_forwards = 0;      ///< kernel invocations
    std::int64_t guide_forward_rows = 0;  ///< rows across those calls
    /// batch_rows_hist[w] = private-weights kernel invocations that scored
    /// exactly w states — the occupancy distribution behind
    /// guide_forward_rows/guide_forwards, which the service layer surfaces
    /// as p50/p99 batch occupancy.  Sized on demand (empty when no guide
    /// forward ran).
    std::vector<std::int64_t> batch_rows_hist;
    // Search-engine telemetry.  The serial search runs one tick per
    // iteration and never collides (one descent in flight).
    std::int64_t leaf_ticks = 0;  ///< evaluator ticks (descend -> evaluate
                                  ///< -> backup rounds)
    std::int64_t tt_hits = 0;     ///< transposition-cache prior hits
    std::int64_t tt_misses = 0;   ///< probes that fell through to the
                                  ///< evaluator
    std::int64_t vloss_collisions = 0;  ///< descents that crossed a node
                                        ///< already holding virtual loss
                                        ///< (another descent in flight)
    std::int64_t rollout_cache_hits = 0;    ///< rollout steps that took a
                                            ///< cached action (entries
                                            ///< without a makespan: faults)
    std::int64_t rollout_cache_misses = 0;  ///< rollout steps that asked
                                            ///< the guide
    std::int64_t rollout_memo_hits = 0;  ///< rollouts ended early at a
                                         ///< cached state with a known
                                         ///< makespan

    /// Visits every int64_t counter above once, with its metric name
    /// ("mcts.<field>").  The one list of counters: flush_metrics and
    /// operator+= are both derived from it.
    void for_each_count(
        const std::function<void(const char* name, std::int64_t value)>& f)
        const;
    /// Sums every counter, search_seconds and batch_rows_hist.
    Stats& operator+=(const Stats& other);

    double seconds_per_decision() const {
      return decisions > 0 ? search_seconds / static_cast<double>(decisions)
                           : 0.0;
    }
    double iterations_per_second() const {
      return search_seconds > 0.0
                 ? static_cast<double>(iterations) / search_seconds
                 : 0.0;
    }
    /// Decisions that actually ran a search (every one of these consumes
    /// exactly its budget's iterations when no deadline truncates it, in
    /// every mode).
    std::int64_t searched_decisions() const {
      return decisions - forced_decisions;
    }
  };
  /// Statistics of the most recent schedule() call.
  const Stats& last_stats() const { return stats_; }

  /// Re-targets the per-schedule budgets without rebuilding the scheduler.
  /// The service daemon (DESIGN.md §12) keeps ONE scheduler (and thus one
  /// guide with its warmed inference workspaces) per worker and adjusts the
  /// budgets to each request's remaining deadline before schedule().
  /// Validation matches the constructor: budgets must be positive,
  /// time_budget_ms non-negative (0 = unlimited).  Never call concurrently
  /// with schedule().
  void set_anytime_budgets(std::int64_t initial_budget,
                           std::int64_t min_budget,
                           std::int64_t time_budget_ms);

  /// Best-effort cancellation through the anytime machinery: while `token`
  /// is non-null and set, every anytime-deadline checkpoint treats the
  /// deadline as already expired, so the search stops at the next iteration
  /// boundary and the remaining decisions degrade to the fallback heuristic
  /// — schedule() still returns a complete (cheap) schedule rather than
  /// throwing.  The token is read with relaxed atomics from the search
  /// threads; any thread may set it at any time.  Pass nullptr to detach.
  /// Like set_anytime_budgets, never call concurrently with schedule().
  void set_cancel_token(const std::atomic<bool>* token) {
    cancel_token_ = token;
  }

 private:
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  /// True when the anytime deadline has passed OR the cancel token fired.
  bool deadline_reached(const Deadline& deadline) const {
    if (cancel_token_ && cancel_token_->load(std::memory_order_relaxed)) {
      return true;
    }
    return deadline && std::chrono::steady_clock::now() >= *deadline;
  }

  /// True for the serial search's one-slot configuration: SearchMode::kRoot
  /// at num_threads == 1.
  bool serial_search() const {
    return options_.search_mode == SearchMode::kRoot &&
           options_.num_threads == 1;
  }

  /// One decision (DESIGN.md §11): runs up to `budget` iterations on `tree`
  /// in synchronized ticks — descend with virtual loss, construct children
  /// and advance rollouts on the workers, drain the evaluation queue
  /// through the transposition cache and ONE batched guide forward, back up
  /// in slot order — stopping at `deadline` if set.  Serial ticks hold one
  /// slot and roll out with `rng`; leaf ticks hold leaf_batch_size slots,
  /// each with its own stream.  Returns the chosen root child (kNoNode if
  /// nothing was ever expanded — callers fall back); `ran_any` reports
  /// whether at least one iteration completed.
  NodeId decide(SearchTree& tree, std::int64_t budget,
                std::int64_t decision_depth, Rng& rng, double exploration_c,
                const Deadline& deadline, bool& ran_any);
  /// The final-move rule: best max value among root children, mean as
  /// tiebreaker (mean only under the ablation); kNoNode when the root has
  /// no children.
  NodeId best_root_child(const SearchTree& tree) const;
  /// Fresh single-node tree for `env` with guide-ordered untried actions.
  SearchTree make_tree(const SchedulingEnv& env);
  /// On first use, lists the worker guides (guide_ itself, then clones)
  /// and builds the thread pool when there is more than one worker.
  void ensure_workers();

  MctsOptions options_;
  std::shared_ptr<DecisionPolicy> guide_;
  Stats stats_;
  std::unique_ptr<ThreadPool> pool_;
  /// worker_guides_[0] is guide_; the rest are its clones.
  std::vector<std::shared_ptr<DecisionPolicy>> worker_guides_;
  /// Prior cache of the running schedule_env() call; null at
  /// transposition_capacity 0 and between calls.
  std::unique_ptr<TranspositionCache> transpositions_;
  /// Rollout cache of the running schedule_env() call; null at
  /// transposition_capacity 0, without a pure guide and between calls.
  std::shared_ptr<SharedActionCache> rollout_cache_;
  /// Rollout value assigned to simulated trajectories that abort under the
  /// retry policy — a deterministic penalty worse than any completion.
  double abort_value_ = 0.0;
  /// Best-effort cancel token (set_cancel_token); null = never cancelled.
  const std::atomic<bool>* cancel_token_ = nullptr;
};

/// Deterministic greedy-packing estimate of the makespan from `env`'s
/// current state (HeuristicDecisionPolicy rollout) — scales the UCB
/// exploration constant, as §IV prescribes.
Time greedy_makespan_estimate(const SchedulingEnv& env);

}  // namespace spear
