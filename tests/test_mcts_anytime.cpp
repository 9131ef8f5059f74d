// Anytime (wall-clock budgeted) and failure-aware MCTS behavior.

#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "mcts/mcts.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

TEST(AnytimeMcts, RejectsNegativeTimeBudget) {
  MctsOptions options;
  options.time_budget_ms = -1;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
}

TEST(AnytimeMcts, TinyBudgetStillReturnsAValidSchedule) {
  MctsOptions options;
  options.initial_budget = 100000;  // would take far longer than 1 ms
  options.min_budget = 100000;
  options.time_budget_ms = 1;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(8, 4);
  const Schedule schedule = scheduler.schedule(dag, cap());
  EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);
  const auto& stats = scheduler.last_stats();
  EXPECT_GT(stats.decisions, 0);
  // The huge iteration budget cannot complete within 1 ms per decision.
  EXPECT_GT(stats.deadline_cutoffs + stats.degradations, 0);
}

/// A guide whose evaluation alone outlasts any 1 ms decision deadline —
/// forces the degradation path (zero completed iterations).
class SlowGuide : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return random_.action_weights(env);
  }

 private:
  RandomDecisionPolicy random_;
};

TEST(AnytimeMcts, DegradesToFallbackWhenTheGuideEatsTheBudget) {
  MctsOptions options;
  options.time_budget_ms = 1;
  MctsScheduler scheduler(options, std::make_shared<SlowGuide>());

  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  const Schedule schedule = scheduler.schedule(dag, cap());
  EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);
  const auto& stats = scheduler.last_stats();
  EXPECT_GT(stats.degradations, 0);
  EXPECT_EQ(stats.iterations, 0);  // nothing ever completed in time
}

TEST(AnytimeMcts, ZeroTimeBudgetStaysDeterministic) {
  const Dag dag = testing::make_diamond(2, 5, 3, 4);
  MctsOptions options;
  options.initial_budget = 200;
  options.min_budget = 50;
  options.seed = 7;

  const Schedule a = MctsScheduler(options).schedule(dag, cap());
  const Schedule b = MctsScheduler(options).schedule(dag, cap());
  ASSERT_EQ(a.placements().size(), b.placements().size());
  for (std::size_t i = 0; i < a.placements().size(); ++i) {
    EXPECT_EQ(a.placements()[i].task, b.placements()[i].task);
    EXPECT_EQ(a.placements()[i].start, b.placements()[i].start);
  }
}

TEST(FaultMcts, SearchUnderFaultsProducesAValidatedSchedule) {
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 5;
  auto injector =
      std::make_shared<const FaultInjector>(fault_options, cap());

  MctsOptions options;
  options.initial_budget = 100;
  options.min_budget = 50;
  options.faults = injector;
  options.retry.max_retries = 5;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(6, 5);
  const Schedule schedule = scheduler.schedule(dag, cap());
  EXPECT_EQ(schedule.validate_under_faults(dag, cap(), *injector),
            std::nullopt);

  std::int64_t failed_attempts = 0;
  for (const auto& a : schedule.attempts()) {
    if (!a.completed) ++failed_attempts;
  }
  const auto& stats = scheduler.last_stats();
  EXPECT_EQ(stats.task_failures, failed_attempts);
  EXPECT_EQ(stats.task_retries, failed_attempts);  // no aborts: all retried
}

TEST(FaultMcts, SpeculativeFaultTelemetryIsCounted) {
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 5;
  auto injector =
      std::make_shared<const FaultInjector>(fault_options, cap());

  MctsOptions options;
  options.initial_budget = 100;
  options.min_budget = 50;
  options.faults = injector;
  options.retry.max_retries = 5;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(6, 5);
  scheduler.schedule(dag, cap());
  const auto& stats = scheduler.last_stats();
  // At a 30% per-attempt rate the search's expansion/rollout states must
  // observe failures; every counted failure was retried (budget 5 is ample).
  EXPECT_GT(stats.search_failures, 0);
  EXPECT_GT(stats.search_retries, 0);
  EXPECT_GE(stats.search_failures,
            stats.search_retries + stats.search_aborts);
}

TEST(FaultMcts, ParallelSearchKeepsPerWorkerFaultTelemetry) {
  // The parallel search must fold each slot's speculative fault counters
  // into the scheduler Stats — search-time fault events at num_threads > 1
  // must never be silently dropped.
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 5;
  auto injector =
      std::make_shared<const FaultInjector>(fault_options, cap());

  MctsOptions options;
  options.initial_budget = 100;
  options.min_budget = 50;
  options.faults = injector;
  options.retry.max_retries = 5;
  options.num_threads = 3;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(6, 5);
  const Schedule schedule = scheduler.schedule(dag, cap());
  EXPECT_EQ(schedule.validate_under_faults(dag, cap(), *injector),
            std::nullopt);

  const auto& stats = scheduler.last_stats();
  EXPECT_GT(stats.search_failures, 0);
  EXPECT_GT(stats.search_retries, 0);

  // The real-trajectory counters are unaffected by the worker merge: they
  // still match the schedule's failed attempts exactly.
  std::int64_t failed_attempts = 0;
  for (const auto& a : schedule.attempts()) {
    if (!a.completed) ++failed_attempts;
  }
  EXPECT_EQ(stats.task_failures, failed_attempts);
  EXPECT_EQ(stats.task_retries, failed_attempts);
}

TEST(AnytimeMcts, ParallelWorkersHonorTheDecisionDeadline) {
  MctsOptions options;
  options.initial_budget = 100000;  // unreachable within 1 ms
  options.min_budget = 100000;
  options.time_budget_ms = 1;
  options.num_threads = 4;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(8, 4);
  const auto start = std::chrono::steady_clock::now();
  const Schedule schedule = scheduler.schedule(dag, cap());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);
  const auto& stats = scheduler.last_stats();
  // Workers check the deadline inside their iteration loops, so the huge
  // iteration budget must be truncated at (nearly) every decision...
  EXPECT_GT(stats.deadline_cutoffs + stats.degradations, 0);
  EXPECT_LT(stats.iterations, 100000 * stats.decisions);
  // ...keeping the whole schedule within a small multiple of
  // decisions x 1 ms (generous slack for slow CI machines).
  EXPECT_LT(elapsed, 5.0);
}

/// Cloneable SlowGuide: leaf-parallel search requires clone() (otherwise it
/// silently stays serial), so the deadline x leaf-mode interplay needs a
/// guide that is both slow and cloneable.
class CloneableSlowGuide : public DecisionPolicy {
 public:
  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return random_.action_weights(env);
  }
  std::shared_ptr<DecisionPolicy> clone() const override {
    return std::make_shared<CloneableSlowGuide>();
  }

 private:
  RandomDecisionPolicy random_;
};

TEST(AnytimeMcts, LeafModeDeadlineSmallerThanOneTickFallsBack) {
  // One evaluator tick includes a guide evaluation (20 ms here), so a 1 ms
  // budget can never finish a tick: every decision must degrade to the
  // fallback heuristic instead of stalling in the evaluator.
  MctsOptions options;
  options.time_budget_ms = 1;
  options.search_mode = SearchMode::kLeaf;
  options.num_threads = 2;
  MctsScheduler scheduler(options, std::make_shared<CloneableSlowGuide>());

  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  const auto start = std::chrono::steady_clock::now();
  const Schedule schedule = scheduler.schedule(dag, cap());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);
  const auto& stats = scheduler.last_stats();
  EXPECT_EQ(stats.iterations, 0);  // not one tick completed in time
  EXPECT_GT(stats.degradations, 0);
  EXPECT_EQ(stats.degradations, stats.decisions - stats.forced_decisions);
  EXPECT_LT(elapsed, 10.0);  // degraded promptly; no evaluator stall
}

TEST(AnytimeMcts, LeafModeDegradationCountersAreWorkerCountInvariant) {
  // The deadline/degradation accounting must reconcile identically at 1, 2,
  // and 4 threads: with the guide eating the whole budget, every searched
  // decision degrades, and the fallback trajectory (deterministic
  // heuristic) is the same.
  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  std::int64_t baseline_decisions = -1;
  std::int64_t baseline_degradations = -1;
  for (const int workers : {1, 2, 4}) {
    MctsOptions options;
    options.time_budget_ms = 1;
    options.search_mode = SearchMode::kLeaf;
    options.num_threads = workers;
    MctsScheduler scheduler(options,
                            std::make_shared<CloneableSlowGuide>());
    const Schedule schedule = scheduler.schedule(dag, cap());
    EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);

    const auto& stats = scheduler.last_stats();
    EXPECT_EQ(stats.iterations, 0) << "workers=" << workers;
    if (baseline_decisions < 0) {
      baseline_decisions = stats.decisions;
      baseline_degradations = stats.degradations;
      EXPECT_GT(baseline_degradations, 0);
    } else {
      EXPECT_EQ(stats.decisions, baseline_decisions)
          << "workers=" << workers;
      EXPECT_EQ(stats.degradations, baseline_degradations)
          << "workers=" << workers;
    }
  }
}

/// A search whose iteration budget only a deadline can end: the node arena
/// must grow with the iterations actually run, not be sized to the budget
/// (50M nodes, each holding an environment, exhausts any machine's memory).
void expect_huge_budget_search_is_cut_by_deadline(MctsOptions options) {
  options.initial_budget = 50'000'000;
  options.min_budget = 50'000'000;
  options.time_budget_ms = 50;
  MctsScheduler scheduler(options);

  const Dag dag = testing::make_independent(6, 4);
  const Schedule schedule = scheduler.schedule(dag, cap());
  EXPECT_EQ(schedule.validate(dag, cap()), std::nullopt);
  const auto& stats = scheduler.last_stats();
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.deadline_cutoffs, 0);
  EXPECT_LT(stats.iterations, options.initial_budget);
}

TEST(SearchArena, SerialHugeBudgetGrowsOnDemand) {
  expect_huge_budget_search_is_cut_by_deadline(MctsOptions{});
}

TEST(SearchArena, LeafHugeBudgetGrowsOnDemand) {
  MctsOptions options;
  options.search_mode = SearchMode::kLeaf;
  options.num_threads = 2;
  expect_huge_budget_search_is_cut_by_deadline(options);
}

TEST(FaultMcts, FaultAwareSearchIsReplayable) {
  FaultOptions fault_options;
  fault_options.fault_rate = 0.2;
  fault_options.straggler_rate = 0.2;
  fault_options.seed = 9;
  auto injector =
      std::make_shared<const FaultInjector>(fault_options, cap());

  MctsOptions options;
  options.initial_budget = 80;
  options.min_budget = 40;
  options.faults = injector;

  const Dag dag = testing::make_diamond(3, 4, 5, 2);
  const Schedule a = MctsScheduler(options).schedule(dag, cap());
  const Schedule b = MctsScheduler(options).schedule(dag, cap());
  ASSERT_EQ(a.attempts().size(), b.attempts().size());
  for (std::size_t i = 0; i < a.attempts().size(); ++i) {
    EXPECT_EQ(a.attempts()[i].task, b.attempts()[i].task);
    EXPECT_EQ(a.attempts()[i].start, b.attempts()[i].start);
    EXPECT_EQ(a.attempts()[i].duration, b.attempts()[i].duration);
  }
}

}  // namespace
}  // namespace spear
