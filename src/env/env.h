// The dependency-aware scheduling MDP (§III-B of the paper).
//
// State: the cluster's resource-time occupancy plus the list of ready tasks
// (tasks whose parents have all finished).  At most `max_ready` ready tasks
// are visible to the agent; the rest wait in a FIFO backlog queue.
//
// Actions: {-1, 0, 1, ..., k-1} where k = number of visible ready tasks.
//   * action i >= 0 schedules the i-th visible ready task at the current
//     time (valid only if its demand fits the instantaneously available
//     resources); time does NOT advance.
//   * action -1 ("process") advances time by one slot and yields reward -1,
//     so that the episode's cumulative reward is the negative makespan.
// MCTS uses process_to_next_finish() instead, advancing straight to the next
// task completion ("no new information arrives prior", §III-C) with reward
// equal to minus the elapsed slots.
//
// SchedulingEnv is a copyable value type; MCTS snapshots one per tree node.

#pragma once

#include <memory>
#include <vector>

#include "cluster/simulator.h"
#include "dag/dag.h"
#include "dag/features.h"
#include "fault/fault.h"

namespace spear {

struct EnvOptions {
  /// Max ready tasks exposed to the agent at once (paper: 15).
  std::size_t max_ready = 15;
  /// Failure-aware mode: a non-null injector decides per-attempt outcomes.
  /// Failed tasks re-enter the ready set after an exponential backoff (see
  /// `retry`); exhausting the retry budget or the per-task deadline throws
  /// JobAbortedError.  Null (default) = the idealized environment,
  /// bit-identical to the pre-fault implementation.
  std::shared_ptr<const FaultInjector> faults;
  RetryOptions retry;
  /// Resume-from-occupancy (online re-scheduling, DESIGN.md §14): these
  /// tasks are placed at t = 0 during construction, BEFORE any agent
  /// action, so the episode starts against a busy cluster.  Each must be a
  /// source of the DAG (its parents already finished in the outside world;
  /// encode the remaining work as the task's runtime) and the combined
  /// demand must fit the capacity.  Placement bypasses the fault injector
  /// (the work is already running; it must not fail or stretch again in
  /// the model).  Empty (default) = the usual idle-cluster start.
  std::vector<TaskId> initial_running;
};

/// Counters accumulated by a failure-aware episode.
struct EnvFaultStats {
  std::int64_t failures = 0;  ///< attempts that died
  std::int64_t retries = 0;   ///< re-queues scheduled after failures
};

class SchedulingEnv {
 public:
  /// The action index meaning "process the cluster".
  static constexpr int kProcessAction = -1;

  /// `dag` is shared immutable state; `features` may be null, in which case
  /// they are computed here (pass a precomputed one to share across many
  /// envs for the same DAG, e.g. across MCTS rollouts).
  SchedulingEnv(std::shared_ptr<const Dag> dag, ResourceVector capacity,
                EnvOptions options = {},
                std::shared_ptr<const DagFeatures> features = nullptr);

  const Dag& dag() const { return *dag_; }
  const DagFeatures& features() const { return *features_; }
  const ClusterSim& cluster() const { return cluster_; }
  const EnvOptions& options() const { return options_; }

  /// Visible ready tasks, in stable (FIFO arrival) order.
  const std::vector<TaskId>& ready() const { return ready_; }
  std::size_t backlog_size() const { return backlog_.size(); }

  /// All tasks finished?
  bool done() const { return completed_ == dag_->num_tasks(); }

  Time now() const { return cluster_.now(); }

  /// Makespan of the finished episode.  Requires done().
  Time makespan() const;

  /// True if visible ready task `i` fits the available resources right now.
  bool can_schedule(std::size_t ready_index) const;

  /// True if the process action is meaningful: something is running, or (in
  /// failure-aware mode) a retry backoff or capacity-loss window must be
  /// waited out before progress is possible.
  bool can_process() const;

  /// Failure counters (zero outside failure-aware mode).
  const EnvFaultStats& fault_stats() const { return fault_stats_; }

  /// Tasks currently waiting out a retry backoff.
  std::size_t pending_retries() const { return pending_retries_.size(); }

  /// Indices of currently valid actions: every fitting visible ready task,
  /// plus kProcessAction when the cluster is busy.
  std::vector<int> valid_actions() const;

  /// Appends this state's canonical transposition-key words (DESIGN.md
  /// §11): the cluster key (elapsed time + running set), the visible ready
  /// set, the backlog, and any pending retries.  Two states with equal keys
  /// featurize bit-identically and expose identical valid-action sets, so
  /// every DecisionPolicy evaluates them to bitwise-equal action weights —
  /// the property the search's state cache relies on.  The DAG
  /// identity is NOT part of the key; callers must not mix keys across
  /// DAGs.
  void append_canonical_key(std::vector<std::uint64_t>& out) const;

  /// Applies an action and returns the reward (0 for scheduling, -1 per
  /// processed slot).  Invalid scheduling actions (task does not fit / index
  /// out of range) are treated as the process action when the cluster is
  /// busy — the standard trick that keeps sampled policies well-defined —
  /// and throw std::logic_error otherwise.
  double step(int action);

  /// MCTS variant: advances to the next task completion.  Requires
  /// can_process().  Returns -(elapsed slots).
  double process_to_next_finish();

  /// The search's step rule: kProcessAction processes to the next task
  /// completion (the paper's depth-minimizing adaptation), any other action
  /// is step(action).
  void apply(int action) {
    if (action == kProcessAction) {
      process_to_next_finish();
    } else {
      step(action);
    }
  }

 private:
  struct PendingRetry {
    TaskId task = kInvalidTask;
    Time ready_at = 0;
  };

  void on_completed(const std::vector<TaskId>& tasks);
  void refill_ready();
  /// Re-queues failed attempts under the retry policy (throws
  /// JobAbortedError on budget/deadline exhaustion) and releases retries
  /// whose backoff has elapsed.  Called after every time advance.
  void after_advance(const std::vector<TaskId>& completed);
  /// Earliest instant at which the state can change with no scheduling
  /// action: a task finish, a retry release, or a capacity-window boundary
  /// while some visible ready task cannot be placed.  kNoTime if none.
  Time next_event_time() const;

  static constexpr Time kNoTime = -1;

  std::shared_ptr<const Dag> dag_;
  std::shared_ptr<const DagFeatures> features_;
  EnvOptions options_;
  ClusterSim cluster_;
  std::vector<TaskId> ready_;             // visible ready tasks
  std::vector<TaskId> backlog_;           // overflow FIFO (front = index 0)
  std::vector<std::int32_t> missing_parents_;  // per task
  std::size_t completed_ = 0;
  std::vector<PendingRetry> pending_retries_;  // sorted by (ready_at, task)
  std::vector<Time> first_attempt_start_;      // per task; kNoTime = none
  EnvFaultStats fault_stats_;
};

}  // namespace spear
