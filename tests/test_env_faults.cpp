#include "env/env.h"

#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "fault/runner.h"
#include "mcts/policies.h"
#include "sched/critical_path.h"
#include "sched/tetris.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

std::shared_ptr<const FaultInjector> injector_with(double rate,
                                                   std::uint64_t seed) {
  FaultOptions options;
  options.fault_rate = rate;
  options.seed = seed;
  return std::make_shared<const FaultInjector>(options, cap());
}

SchedulingEnv make_fault_env(Dag dag,
                             std::shared_ptr<const FaultInjector> faults,
                             RetryOptions retry = {}) {
  EnvOptions options;
  options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  options.faults = std::move(faults);
  options.retry = retry;
  return SchedulingEnv(std::make_shared<Dag>(std::move(dag)), cap(), options);
}

/// Schedules the first fitting visible task, otherwise processes.
Time drive_greedy(SchedulingEnv& env) {
  while (!env.done()) {
    bool scheduled = false;
    for (std::size_t i = 0; i < env.ready().size(); ++i) {
      if (env.can_schedule(i)) {
        env.step(static_cast<int>(i));
        scheduled = true;
        break;
      }
    }
    if (!scheduled) env.process_to_next_finish();
  }
  return env.makespan();
}

/// Seed whose fault trace makes attempt 0 of every listed task fail and
/// attempt 1 succeed (deterministic given the scan order).
std::shared_ptr<const FaultInjector> find_fail_once_injector(
    const Dag& dag, double rate) {
  for (std::uint64_t seed = 1; seed < 5000; ++seed) {
    auto candidate = injector_with(rate, seed);
    bool ok = true;
    for (const auto& t : dag.tasks()) {
      if (!candidate->attempt_outcome(t, 0).fails ||
          candidate->attempt_outcome(t, 1).fails) {
        ok = false;
        break;
      }
    }
    if (ok) return candidate;
  }
  return nullptr;
}

TEST(EnvFaults, AllTasksFailOnceThenRecover) {
  const Dag dag = testing::make_independent(3, 6);
  auto injector = find_fail_once_injector(dag, 0.5);
  ASSERT_TRUE(injector);

  SchedulingEnv env =
      make_fault_env(testing::make_independent(3, 6), injector);
  const Time makespan = drive_greedy(env);

  EXPECT_EQ(env.fault_stats().failures, 3);
  EXPECT_EQ(env.fault_stats().retries, 3);
  EXPECT_EQ(env.pending_retries(), 0u);
  // Every task ran (at least partially) twice, so the episode outlasts the
  // ideal 2-wave packing of three half-capacity tasks (12 slots).
  EXPECT_GT(makespan, 6);
  EXPECT_EQ(env.cluster().schedule().validate_under_faults(env.dag(), cap(),
                                                           *injector),
            std::nullopt);
  EXPECT_EQ(env.cluster().schedule().attempts().size(), 6u);
}

TEST(EnvFaults, RetryBudgetExhaustionAbortsInsteadOfLooping) {
  const Dag probe = testing::make_chain({8});
  std::shared_ptr<const FaultInjector> injector;
  for (std::uint64_t seed = 1; seed < 100 && !injector; ++seed) {
    auto candidate = injector_with(0.9, seed);
    if (candidate->attempt_outcome(probe.task(0), 0).fails) {
      injector = candidate;
    }
  }
  ASSERT_TRUE(injector);

  RetryOptions retry;
  retry.max_retries = 0;  // the very first failure is fatal
  SchedulingEnv env =
      make_fault_env(testing::make_chain({8}), injector, retry);
  try {
    drive_greedy(env);
    FAIL() << "expected JobAbortedError";
  } catch (const JobAbortedError& e) {
    EXPECT_EQ(e.task(), 0);
    EXPECT_EQ(e.attempts(), 1);
    EXPECT_NE(std::string(e.what()).find("retry budget exhausted"),
              std::string::npos);
  }
}

TEST(EnvFaults, PerTaskDeadlineAborts) {
  const Dag probe = testing::make_chain({8});
  std::shared_ptr<const FaultInjector> injector;
  for (std::uint64_t seed = 1; seed < 100 && !injector; ++seed) {
    auto candidate = injector_with(0.9, seed);
    if (candidate->attempt_outcome(probe.task(0), 0).fails) {
      injector = candidate;
    }
  }
  ASSERT_TRUE(injector);

  RetryOptions retry;
  retry.max_retries = 5;
  retry.backoff_base = 10;   // retry would release 10 slots after failure...
  retry.task_deadline = 1;   // ...far beyond the 1-slot deadline
  SchedulingEnv env =
      make_fault_env(testing::make_chain({8}), injector, retry);
  try {
    drive_greedy(env);
    FAIL() << "expected JobAbortedError";
  } catch (const JobAbortedError& e) {
    EXPECT_EQ(e.task(), 0);
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(EnvFaults, BackoffDelaysTheRetryExactly) {
  const Dag probe = testing::make_chain({10});
  std::shared_ptr<const FaultInjector> injector;
  for (std::uint64_t seed = 1; seed < 1000 && !injector; ++seed) {
    auto candidate = injector_with(0.5, seed);
    if (candidate->attempt_outcome(probe.task(0), 0).fails &&
        !candidate->attempt_outcome(probe.task(0), 1).fails) {
      injector = candidate;
    }
  }
  ASSERT_TRUE(injector);
  const Time fail_at = injector->attempt_outcome(probe.task(0), 0).duration;

  RetryOptions retry;
  retry.backoff_base = 4;
  SchedulingEnv env =
      make_fault_env(testing::make_chain({10}), injector, retry);

  ASSERT_TRUE(env.can_schedule(0));
  env.step(0);
  env.process_to_next_finish();  // runs into the failure
  EXPECT_EQ(env.now(), fail_at);
  EXPECT_EQ(env.fault_stats().failures, 1);
  EXPECT_EQ(env.fault_stats().retries, 1);
  EXPECT_EQ(env.pending_retries(), 1u);
  EXPECT_TRUE(env.ready().empty());
  // Idle cluster, but a pending retry makes process meaningful.
  ASSERT_TRUE(env.can_process());

  env.process_to_next_finish();  // waits out the backoff
  EXPECT_EQ(env.now(), fail_at + 4);
  EXPECT_EQ(env.pending_retries(), 0u);
  ASSERT_EQ(env.ready().size(), 1u);

  env.step(0);
  env.process_to_next_finish();
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.makespan(), fail_at + 4 + 10);
}

TEST(EnvFaults, CapacityLossWindowBlocksPlacementUntilItCloses) {
  // A full-capacity loss window; find a seed that leaves slack before it so
  // the first task can start at t = 0.
  std::shared_ptr<const FaultInjector> injector;
  for (std::uint64_t seed = 1; seed < 100 && !injector; ++seed) {
    FaultOptions options;
    options.num_loss_windows = 1;
    options.loss_fraction = 1.0;
    options.loss_horizon = 40;
    options.loss_window_length = 10;
    options.seed = seed;
    auto candidate = std::make_shared<const FaultInjector>(options, cap());
    if (!candidate->loss_windows().empty() &&
        candidate->loss_windows().front().start >= 2) {
      injector = candidate;
    }
  }
  ASSERT_TRUE(injector);
  const auto& window = injector->loss_windows().front();

  // Chain: the first task finishes one slot into the window, leaving its
  // child ready but unplaceable until the window closes.
  SchedulingEnv env = make_fault_env(
      testing::make_chain({window.start + 1, 5}), injector);

  ASSERT_TRUE(env.can_schedule(0));
  env.step(0);
  env.process_to_next_finish();
  EXPECT_EQ(env.now(), window.start + 1);
  ASSERT_EQ(env.ready().size(), 1u);
  EXPECT_FALSE(env.can_schedule(0));  // window withholds all capacity
  // Idle cluster + blocked ready task: process must remain available, and
  // the only valid action, so the episode cannot deadlock.
  EXPECT_TRUE(env.can_process());
  EXPECT_EQ(env.valid_actions(),
            std::vector<int>{SchedulingEnv::kProcessAction});

  env.process_to_next_finish();  // waits out the window
  EXPECT_EQ(env.now(), window.end);
  ASSERT_TRUE(env.can_schedule(0));
  env.step(0);
  env.process_to_next_finish();
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.makespan(), window.end + 5);
  EXPECT_EQ(env.cluster().schedule().validate_under_faults(env.dag(), cap(),
                                                           *injector),
            std::nullopt);
}

TEST(EnvFaults, StragglersStretchTheMakespan) {
  FaultOptions options;
  options.straggler_rate = 1.0;
  options.straggler_factor = 2.0;
  auto injector = std::make_shared<const FaultInjector>(options, cap());

  SchedulingEnv env = make_fault_env(testing::make_chain({5}), injector);
  const Time makespan = drive_greedy(env);
  EXPECT_EQ(makespan, 10);  // every attempt runs 2x slower
  EXPECT_EQ(env.fault_stats().failures, 0);
  EXPECT_EQ(env.cluster().schedule().makespan(env.dag()), 10);
}

// --- Hardened retry backoff (overflow + deadline clamps) ------------------

TEST(RetryBackoff, MatchesClosedFormWithinTheCap) {
  RetryOptions retry;
  retry.backoff_base = 4;
  retry.backoff_cap = 64;
  EXPECT_EQ(retry_backoff_delay(retry, 1, 0, 0), 4);
  EXPECT_EQ(retry_backoff_delay(retry, 2, 0, 0), 8);
  EXPECT_EQ(retry_backoff_delay(retry, 3, 0, 0), 16);
  EXPECT_EQ(retry_backoff_delay(retry, 4, 0, 0), 32);
  EXPECT_EQ(retry_backoff_delay(retry, 5, 0, 0), 64);
  EXPECT_EQ(retry_backoff_delay(retry, 6, 0, 0), 64);  // capped from here on
}

TEST(RetryBackoff, DoublingSaturatesInsteadOfOverflowing) {
  // With a huge cap the naive base * 2^(k-1) recurrence overflows the signed
  // Time around attempt 63 and yields a negative delay "in the past".  The
  // hardened version saturates at the cap and stays representable.
  RetryOptions retry;
  retry.backoff_base = 1;
  retry.backoff_cap = std::numeric_limits<Time>::max();
  const Time d = retry_backoff_delay(retry, 200, 0, 0);
  EXPECT_GT(d, 0);
  EXPECT_EQ(d, std::numeric_limits<Time>::max());
  // now + delay must remain representable too.
  const Time now = 1000;
  EXPECT_EQ(retry_backoff_delay(retry, 200, now, 0),
            std::numeric_limits<Time>::max() - now);
}

TEST(RetryBackoff, CapsAtTheRemainingDeadlineWindow) {
  RetryOptions retry;
  retry.backoff_base = 40;
  retry.backoff_cap = 1000;
  retry.task_deadline = 100;
  // Second failure at t = 50: the naive delay (80) would release at 130,
  // past the deadline at 100.  The hardened delay waits only the remaining
  // 50 slots — the last admissible retry instant.
  EXPECT_EQ(retry_backoff_delay(retry, 2, 50, 0), 50);
  // An already-spent window leaves the delay uncapped; the caller's
  // deadline check then aborts exactly as before.
  EXPECT_EQ(retry_backoff_delay(retry, 2, 180, 0), 80);
  // first_start shifts the window.
  EXPECT_EQ(retry_backoff_delay(retry, 2, 150, 100), 50);
  // No deadline: no clamp at all.
  retry.task_deadline = 0;
  EXPECT_EQ(retry_backoff_delay(retry, 2, 50, 0), 80);
}

TEST(RetryBackoff, DeadlineClampRescuesAJobTheNaiveBackoffWouldAbort) {
  // A task that fails twice: the first backoff (40) fits the 100-slot
  // deadline, but the naive second backoff (80) would release at >= 122 and
  // abort the job.  The hardened backoff parks the retry at exactly the
  // deadline instant, where the third attempt succeeds.
  const Dag probe = testing::make_chain({10});
  std::shared_ptr<const FaultInjector> injector;
  for (std::uint64_t seed = 1; seed < 20000 && !injector; ++seed) {
    auto candidate = injector_with(0.5, seed);
    if (candidate->attempt_outcome(probe.task(0), 0).fails &&
        candidate->attempt_outcome(probe.task(0), 1).fails &&
        !candidate->attempt_outcome(probe.task(0), 2).fails) {
      injector = candidate;
    }
  }
  ASSERT_TRUE(injector);
  const Time f1 = injector->attempt_outcome(probe.task(0), 0).duration;
  const Time f2 = injector->attempt_outcome(probe.task(0), 1).duration;
  // Failed attempts die strictly inside the 10-slot runtime, so the second
  // failure lands at f1 + 40 + f2 <= 58 < 100 while the naive retry at
  // + 80 would land at >= 122 > 100.
  ASSERT_LE(f1 + 40 + f2, 58);

  RetryOptions retry;
  retry.max_retries = 3;
  retry.backoff_base = 40;
  retry.backoff_cap = 1000;
  retry.task_deadline = 100;
  SchedulingEnv env =
      make_fault_env(testing::make_chain({10}), injector, retry);
  const Time makespan = drive_greedy(env);
  EXPECT_EQ(env.fault_stats().failures, 2);
  EXPECT_EQ(env.fault_stats().retries, 2);
  // The rescued third attempt starts at the deadline instant exactly.
  EXPECT_EQ(makespan, 100 + 10);
  EXPECT_EQ(env.cluster().schedule().validate_under_faults(env.dag(), cap(),
                                                           *injector),
            std::nullopt);
}

// --- Greedy policy execution under faults (the rescheduling baselines) ---

TEST(FaultRunner, HeuristicPoliciesRescheduleThroughFailures) {
  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  auto injector = injector_with(0.3, 11);
  RetryOptions retry;

  for (const PriorityFn& score :
       {PriorityFn(tetris_alignment), PriorityFn(b_level_urgency)}) {
    HeuristicDecisionPolicy policy(score);
    const FaultRunResult result =
        run_policy_under_faults(policy, dag, cap(), injector, retry);
    EXPECT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(result.schedule.validate_under_faults(dag, cap(), *injector),
              std::nullopt);
    EXPECT_EQ(result.makespan, result.schedule.makespan(dag));
  }
}

TEST(FaultRunner, NullInjectorMatchesIdealizedValidation) {
  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  HeuristicDecisionPolicy tetris(tetris_alignment);
  const FaultRunResult result =
      run_policy_under_faults(tetris, dag, cap(), nullptr, {});
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.schedule.validate(dag, cap()), std::nullopt);
  EXPECT_TRUE(result.schedule.attempts().empty());
  EXPECT_EQ(result.fault_stats.failures, 0);
}

}  // namespace
}  // namespace spear
