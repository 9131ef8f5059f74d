#include "sched/list_scheduler.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace spear {

int greedy_action(const SchedulingEnv& env, const PriorityFn& priority) {
  int best_action = SchedulingEnv::kProcessAction;
  double best_priority = 0.0;
  const auto& ready = env.ready();
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (!env.can_schedule(i)) continue;
    const double p = priority(env, ready[i]);
    if (best_action == SchedulingEnv::kProcessAction || p > best_priority) {
      best_action = static_cast<int>(i);
      best_priority = p;
    }
  }
  return best_action;
}

Time run_greedy(SchedulingEnv& env,
                const std::function<int(const SchedulingEnv&)>& next_action) {
  while (!env.done()) env.apply(next_action(env));
  return env.makespan();
}

ListScheduler::ListScheduler(std::string name, PriorityFn priority)
    : name_(std::move(name)), priority_(std::move(priority)) {
  if (!priority_) {
    throw std::invalid_argument("ListScheduler: null priority function");
  }
}

Schedule ListScheduler::schedule(const Dag& dag,
                                 const ResourceVector& capacity) {
  EnvOptions options;
  options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  SchedulingEnv env(std::make_shared<Dag>(dag), capacity, options);
  run_greedy(env, [this](const SchedulingEnv& state) {
    return greedy_action(state, priority_);
  });
  return env.cluster().schedule();
}

}  // namespace spear
