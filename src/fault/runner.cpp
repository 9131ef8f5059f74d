#include "fault/runner.h"

#include <algorithm>
#include <utility>

#include "sched/list_scheduler.h"

namespace spear {

FaultRunResult run_policy_under_faults(
    DecisionPolicy& policy, const Dag& dag, const ResourceVector& capacity,
    std::shared_ptr<const FaultInjector> faults, const RetryOptions& retry,
    std::uint64_t seed) {
  EnvOptions options;
  options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  if (const auto* drl = dynamic_cast<const DrlDecisionPolicy*>(&policy)) {
    options.max_ready = drl->max_ready();
  }
  options.faults = std::move(faults);
  options.retry = retry;
  SchedulingEnv env(std::make_shared<Dag>(dag), capacity, options);

  Rng rng(seed);
  FaultRunResult result;
  try {
    result.makespan = run_greedy(env, [&](const SchedulingEnv& state) {
      return policy.pick(state, rng);
    });
  } catch (const JobAbortedError& e) {
    result.aborted = true;
    result.abort_reason = e.what();
  }
  result.schedule = env.cluster().schedule();
  result.fault_stats = env.fault_stats();
  return result;
}

}  // namespace spear
