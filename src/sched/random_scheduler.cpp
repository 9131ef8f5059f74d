#include "sched/random_scheduler.h"

#include "common/rng.h"
#include "sched/list_scheduler.h"

namespace spear {

std::unique_ptr<Scheduler> make_random_scheduler(std::uint64_t seed) {
  // A fresh uniform priority per (decision, task) pair is equivalent to
  // picking uniformly among the fitting ready tasks.
  return std::make_unique<ListScheduler>(
      "Random", [rng = Rng(seed)](const SchedulingEnv&, TaskId) mutable {
        return rng.uniform();
      });
}

}  // namespace spear
