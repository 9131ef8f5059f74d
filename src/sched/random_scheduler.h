// Random work-conserving scheduler: picks uniformly among the ready tasks
// that fit.  Not a paper baseline, but the reference point for "how much do
// the informed policies actually buy" in tests and ablations, and the
// default MCTS rollout policy before DRL guidance is added.

#pragma once

#include <cstdint>
#include <memory>

#include "sched/scheduler.h"

namespace spear {

/// Creates the random baseline seeded with `seed`.  One instance draws one
/// RNG stream: each schedule() call continues where the last one stopped.
std::unique_ptr<Scheduler> make_random_scheduler(std::uint64_t seed);

}  // namespace spear
