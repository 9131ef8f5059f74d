#include "fault/runner.h"

#include <utility>

#include "sched/list_scheduler.h"

namespace spear {

FaultRunResult run_policy_under_faults(
    DecisionPolicy& policy, const Dag& dag, const ResourceVector& capacity,
    std::shared_ptr<const FaultInjector> faults, const RetryOptions& retry,
    std::uint64_t seed) {
  EnvOptions options;
  options.max_ready = ready_window(policy, dag);
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
