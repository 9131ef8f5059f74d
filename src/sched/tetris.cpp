#include "sched/tetris.h"

#include <algorithm>
#include <stdexcept>

#include "sched/critical_path.h"

namespace spear {

double tetris_alignment(const SchedulingEnv& env, TaskId task) {
  return env.dag().task(task).demand.dot(env.cluster().available());
}

double cp_tetris_blend(const SchedulingEnv& env, TaskId task) {
  return b_level_urgency(env, task) * (1e-6 + tetris_alignment(env, task));
}

std::unique_ptr<Scheduler> make_tetris_scheduler() {
  return std::make_unique<ListScheduler>("Tetris", tetris_alignment);
}

std::unique_ptr<Scheduler> make_tetris_srpt_scheduler(double srpt_weight) {
  if (srpt_weight < 0.0 || srpt_weight > 1.0) {
    throw std::invalid_argument(
        "make_tetris_srpt_scheduler: srpt_weight must be in [0, 1]");
  }
  const std::string name =
      "Tetris+SRPT(" + std::to_string(srpt_weight).substr(0, 4) + ")";
  auto priority = [srpt_weight](const SchedulingEnv& env, TaskId task) {
    // Both terms normalized to [0, 1] so the blend weight is meaningful:
    // alignment by its maximum (capacity . capacity), remaining work by
    // the DAG's critical path.
    const auto& capacity = env.cluster().capacity();
    const double alignment =
        tetris_alignment(env, task) / std::max(capacity.dot(capacity), 1e-9);
    const double srpt = 1.0 - b_level_urgency(env, task);
    return (1.0 - srpt_weight) * alignment + srpt_weight * srpt;
  };
  return std::make_unique<ListScheduler>(name, priority);
}

}  // namespace spear
