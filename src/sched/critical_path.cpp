#include "sched/critical_path.h"

#include <algorithm>

namespace spear {

double critical_path_priority(const SchedulingEnv& env, TaskId task) {
  // b-level dominates; #children breaks ties (scaled far below one runtime
  // unit so it can never override a genuine b-level difference).
  const double b_level = static_cast<double>(env.features().b_level(task));
  const double children =
      static_cast<double>(env.features().num_children(task));
  const double n = static_cast<double>(env.dag().num_tasks()) + 1.0;
  return b_level + children / (n * 2.0);
}

double b_level_urgency(const SchedulingEnv& env, TaskId task) {
  const double cp = static_cast<double>(
      std::max<Time>(env.features().critical_path(), 1));
  return static_cast<double>(env.features().b_level(task)) / cp;
}

std::unique_ptr<Scheduler> make_critical_path_scheduler() {
  return std::make_unique<ListScheduler>("CP", critical_path_priority);
}

}  // namespace spear
