// Critical Path (CP) baseline: prioritizes ready tasks by their b-level —
// the runtime-weighted longest path to an exit task — with the number of
// children as the classic tiebreaker.  Dependency-aware but blind to
// multi-dimensional resource demands.

#pragma once

#include <memory>

#include "sched/list_scheduler.h"

namespace spear {

/// Creates the CP baseline.
std::unique_ptr<Scheduler> make_critical_path_scheduler();

/// The CP priority itself, exposed for reuse (the RL imitation teacher
/// learns from this heuristic, §IV of the paper).
double critical_path_priority(const SchedulingEnv& env, TaskId task);

/// b-level as a fraction of the critical path, in [0, 1]: the pure-CP
/// heuristic guide's score and the urgency half of cp_tetris_blend.
double b_level_urgency(const SchedulingEnv& env, TaskId task);

}  // namespace spear
