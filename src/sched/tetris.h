// Tetris (Grandl et al., SIGCOMM'14) packing baseline as described by the
// paper: multi-resource aware but dependency-blind.  At each decision the
// ready task with the highest *alignment score* — the inner product of its
// demand vector with the currently available resource vector — is started.
// Tasks with large demands along currently-plentiful dimensions pack first,
// reducing fragmentation.

#pragma once

#include <memory>

#include "sched/list_scheduler.h"

namespace spear {

/// Creates the Tetris baseline (pure packing score, as the Spear paper
/// describes it).
std::unique_ptr<Scheduler> make_tetris_scheduler();

/// The full Tetris score of the original paper: alignment blended with an
/// SRPT (shortest-remaining-processing-time) term controlled by `srpt_weight`
/// in [0, 1] — 0 is pure packing (== make_tetris_scheduler), 1 is pure SRPT.
/// The SRPT term scores shorter *remaining downstream work* (the task's
/// b-level) higher, trading packing efficiency against completion delay.
std::unique_ptr<Scheduler> make_tetris_srpt_scheduler(double srpt_weight);

/// The alignment score, exposed for reuse in rollout heuristics.
double tetris_alignment(const SchedulingEnv& env, TaskId task);

/// The heuristic guide's default score: b-level urgency (dependency
/// awareness) x alignment (packing awareness), b_level_urgency(task) *
/// (1e-6 + tetris_alignment(task)).  Both factors are non-negative, so the
/// products rank sensibly.
double cp_tetris_blend(const SchedulingEnv& env, TaskId task);

}  // namespace spear
