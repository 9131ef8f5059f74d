// Online execution engine with surprise detection, schedule repair, and
// straggler speculation (DESIGN.md §14).
//
// The offline planners (Spear::schedule, MctsScheduler, the list
// schedulers) commit a Schedule against ESTIMATED runtimes.  The engine
// takes that committed plan, replays it event-by-event against a stochastic
// cluster where REALIZED runtimes come from a RuntimePerturber (or a
// caller-provided duration source, e.g. trace-recorded durations), and
// reacts to divergence.  At each task-completion event it measures the
// surprise — realized lateness versus the estimate — and climbs a repair
// ladder of increasing cost:
//
//   1. absorb       — |surprise| <= kAbsorbFactor * estimate: the event
//                     slack soaks it up; nothing to do.
//   2. local repair — re-sort the not-yet-started frontier by bottom level
//                     (critical path over the remaining work), computed
//                     once per engine.  Cheap, handles most lateness.
//   3. re-search    — surprise > research_factor * estimate: rebuild the
//                     residual DAG (pending tasks plus in-flight work as
//                     preloaded source stubs), hand it to MctsScheduler via
//                     schedule_env() with a bounded iteration budget, and
//                     adopt the new priority order.  Rate-limited by a
//                     cooldown and skipped when almost done.
//
// Orthogonally the engine speculates on stragglers: once an attempt has run
// speculation_factor times its estimate, a duplicate attempt (next attempt
// index, independent perturbation draw) is launched when resources allow;
// first finish wins and the loser is cancelled: it leaves the running set
// and its resources are released at the cancel instant.  Capacity-loss
// windows from a FaultInjector gate NEW dispatches exactly as in
// ClusterSim.
//
// Everything is deterministic: realized durations are pure functions of
// (seed, task, attempt), re-search uses iteration budgets with leaf-mode
// MCTS (bit-identical across thread counts), and the event log serializes
// to a canonical text form — the same seed yields byte-identical logs, and
// 1 vs 4 re-search threads yield identical repair decisions.  The offline
// planning paths are untouched: the engine is a pure consumer of Schedule.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/schedule.h"
#include "dag/dag.h"
#include "dag/features.h"
#include "dag/resource.h"
#include "exec/perturb.h"
#include "fault/fault.h"

namespace spear::exec {

/// Realized-duration source: slots the (0-based) `attempt`-th execution of
/// `task` actually takes (must be >= 1).  Must be a pure function of its
/// arguments — the engine may query any (task, attempt) pair at most once,
/// but determinism tests replay whole runs.
using DurationFn = std::function<Time(const Task& task, int attempt)>;

/// What happened, when.  `value` is kind-specific (see EventKind).
enum class EventKind {
  kStart,        ///< attempt dispatched; value = realized duration
  kSpeculate,    ///< duplicate attempt dispatched; value = realized duration
  kFinish,       ///< winning attempt completed; value = surprise (lateness
                 ///< of the task versus first-start + estimate, in slots)
  kCancel,       ///< losing duplicate cancelled; value = slots it ran
  kAbsorb,       ///< ladder rung 1 chosen; value = surprise
  kLocalRepair,  ///< ladder rung 2 chosen; value = surprise
  kResearch,     ///< ladder rung 3 chosen; value = surprise
};

struct ExecEvent {
  Time time = 0;
  EventKind kind = EventKind::kStart;
  TaskId task = kInvalidTask;
  int attempt = 0;
  Time value = 0;
};

/// Canonical one-line-per-event text form, e.g. "17 finish task=3 attempt=0
/// value=5".  Byte-compared by the determinism tests and CI smoke.
std::string format_events(const std::vector<ExecEvent>& events);

struct ExecStats {
  std::int64_t surprises = 0;      ///< completions with |surprise| > 0
  std::int64_t absorbed = 0;
  std::int64_t local_repairs = 0;
  std::int64_t researches = 0;
  std::int64_t speculations = 0;   ///< duplicates launched
  std::int64_t speculation_wins = 0;  ///< duplicate finished first
  std::int64_t cancellations = 0;
  Time max_surprise = 0;
};

struct ExecResult {
  Time makespan = 0;               ///< == replay_makespan(events), exactly
  std::vector<ExecEvent> events;   ///< in (time, emission) order
  ExecStats stats;
};

/// Ladder rung 1: |surprise| <= kAbsorbFactor * estimate is absorbed.
inline constexpr double kAbsorbFactor = 0.25;

struct ExecOptions {
  /// false = open-loop baseline: plan-faithful replay (a task never starts
  /// before its planned start, priority order is frozen, no ladder).
  /// true = the work-conserving repair ladder.
  bool repair = true;

  /// Default realized-runtime model; ignored when `realized` is set.
  PerturbOptions perturb;
  /// Overrides `perturb` when non-null (trace-provided durations, or the
  /// FaultInjector's own attempt durations for cross-validation).
  DurationFn realized;

  /// Ladder rung 3: surprise > research_factor * estimate triggers a
  /// bounded re-search (subject to cooldown / min-pending gates below).
  double research_factor = 1.0;
  /// Completion events that must elapse between re-searches.
  int research_cooldown = 8;
  /// Re-search is skipped when fewer pending tasks remain (the residual
  /// problem is too small to out-plan a greedy frontier sort).
  std::size_t research_min_pending = 3;
  /// Anytime iteration budgets handed to MctsScheduler (per decision).
  /// Iteration-based, never wall-clock, so repair decisions are
  /// reproducible across machines and thread counts.
  std::int64_t research_initial_budget = 128;
  std::int64_t research_min_budget = 32;
  /// MctsOptions::num_threads of the re-search, which runs leaf mode on one
  /// thread whatever this says: results are bit-identical across values.
  /// Kept only because the benchmark's online workload sets it.
  int research_threads = 1;

  /// Straggler speculation master switch.  Each task gets at most one
  /// duplicate (first-finish-wins between the two attempts).
  bool speculate = true;
  /// Duplicate once an attempt has run speculation_factor * estimate slots
  /// without finishing (the p-quantile proxy: under the default lognormal
  /// noise, 2x the mean estimate sits past p95).
  double speculation_factor = 2.0;

  /// Capacity-loss windows gate new dispatches (running work is unaffected,
  /// matching ClusterSim).  Fail/straggler rates of the injector are NOT
  /// consulted here — runtime stochasticity is the perturber's job.
  std::shared_ptr<const FaultInjector> faults;

  /// Salts the deterministic per-re-search MCTS seeds.
  std::uint64_t seed = 42;
};

class ExecutionEngine {
 public:
  /// Throws std::invalid_argument on null dag / out-of-range options.
  ExecutionEngine(std::shared_ptr<const Dag> dag, ResourceVector capacity,
                  ExecOptions options = {});

  /// Replays `plan` (which must place every task of the dag) to completion.
  /// Deterministic: same (dag, capacity, options, plan) => same result,
  /// byte-identical event log included.
  ExecResult run(const Schedule& plan);

  const ExecOptions& options() const { return options_; }

 private:
  struct RunningAttempt;
  struct RunState;

  bool parents_done(const RunState& s, TaskId id) const;
  /// The instant attempt `r` may get its duplicate; -1 when it never will
  /// (speculation off, `r` is a duplicate, or its task already has one).
  Time speculation_time(const RunState& s, const RunningAttempt& r) const;
  bool try_start_tasks(RunState& s) const;
  void maybe_speculate(RunState& s) const;
  Time next_event_time(const RunState& s) const;
  void handle_completion(RunState& s, TaskId task, Time estimate) const;
  void local_repair(RunState& s) const;
  void research(RunState& s) const;

  std::shared_ptr<const Dag> dag_;
  ResourceVector capacity_;
  ExecOptions options_;
  /// Local repair's urgency: b-levels over nominal runtimes (exact for the
  /// frontier: no descendant of an unfinished task can be finished).
  DagFeatures features_;
  std::optional<RuntimePerturber> perturber_;  // engaged iff !options_.realized
};

/// Replays the event log against the dag: dependency order (no attempt
/// starts before every parent's winning finish), capacity (total demand of
/// concurrently running attempts never exceeds capacity minus the
/// injector's loss at each dispatch instant), and attempt accounting
/// (indices 0,1,2,... per task; exactly one winning finish per task; every
/// other dispatched attempt cancelled).  Returns std::nullopt when valid,
/// else a description of the first violation.
std::optional<std::string> validate_events(
    const Dag& dag, const ResourceVector& capacity,
    const std::vector<ExecEvent>& events,
    const FaultInjector* faults = nullptr);

/// Makespan recomputed from the log alone: max finish-event time (0 when no
/// finishes).  ExecResult::makespan equals this exactly.
Time replay_makespan(const std::vector<ExecEvent>& events);

/// Schedule built from the event log (placements = winning attempts,
/// attempt records = every dispatched attempt), for feeding the existing
/// Schedule::validate* machinery.
Schedule schedule_from_events(const std::vector<ExecEvent>& events);

}  // namespace spear::exec
