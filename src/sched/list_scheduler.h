// Priority-driven online list scheduler with packing.
//
// The classic skeleton every greedy baseline shares: at each decision
// instant, among the ready tasks whose demand fits the currently available
// resources, greedily start the one with the highest priority; repeat until
// nothing fits, then advance time to the next task completion (resources
// and the ready set can only change there).  Concrete baselines are just
// priority functions:
//   SJF     priority = -runtime
//   CP      priority = b-level
//   Tetris  priority = demand . available   (alignment score)
//   Random  priority = fresh random draw per decision
//
// Priorities may depend on the live cluster state (Tetris does), so the
// callback receives the whole environment.  The same rule — greedy_action
// stepped by run_greedy — also drives the heuristic MCTS guides, the
// fault-aware runner, the UCB-scale probe and the CP imitation teacher.

#pragma once

#include <functional>
#include <string>

#include "env/env.h"
#include "sched/scheduler.h"

namespace spear {

/// Priority of scheduling `task` in the current state; larger is better.
using PriorityFn =
    std::function<double(const SchedulingEnv& env, TaskId task)>;

/// The greedy rule: the visible ready task that fits right now with the
/// highest priority (the first maximum in ready order), or
/// SchedulingEnv::kProcessAction when nothing fits.  Evaluates `priority`
/// exactly once per fitting task, in ready order, so a stateful priority
/// (Random's RNG) draws in a fixed sequence.
int greedy_action(const SchedulingEnv& env, const PriorityFn& priority);

/// Steps `env` until done, taking next_action(env) at every decision; the
/// process action advances to the next task completion.  Returns the
/// makespan.  JobAbortedError from a failure-aware env propagates.
Time run_greedy(SchedulingEnv& env,
                const std::function<int(const SchedulingEnv&)>& next_action);

class ListScheduler : public Scheduler {
 public:
  ListScheduler(std::string name, PriorityFn priority);

  std::string name() const override { return name_; }
  /// Runs greedy_action over all ready tasks (not limited to the RL
  /// agent's 15-slot window) until the DAG completes.
  Schedule schedule(const Dag& dag, const ResourceVector& capacity) override;

 private:
  std::string name_;
  PriorityFn priority_;
};

}  // namespace spear
