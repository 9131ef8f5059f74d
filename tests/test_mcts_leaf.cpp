// Leaf-parallel MCTS (DESIGN.md §11): seeded determinism across thread
// counts, stats reconciliation, cache bit-identity, search counters that
// do not depend on the thread count, no rollout cache left on the guide
// after a schedule, kRoot at several threads running the same
// search, and uncloneable guides searching like any other.

#include "mcts/mcts.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "fault/fault.h"
#include "mcts/policies.h"
#include "rl/policy.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Dag test_dag(std::uint64_t seed, std::size_t tasks = 16) {
  DagGeneratorOptions gen;
  gen.num_tasks = tasks;
  Rng rng(seed);
  return generate_random_dag(gen, rng);
}

std::shared_ptr<DrlDecisionPolicy> make_guide(bool greedy = true) {
  Rng rng(5);
  auto policy = std::make_shared<const Policy>(
      Policy::make(FeaturizerOptions{}, 2, rng, {16}));
  return std::make_shared<DrlDecisionPolicy>(std::move(policy), greedy);
}

MctsOptions leaf_options(int threads) {
  MctsOptions options;
  options.initial_budget = 48;
  options.min_budget = 16;
  options.num_threads = threads;
  options.search_mode = SearchMode::kLeaf;
  options.seed = 77;
  return options;
}

std::vector<Placement> run_leaf(const MctsOptions& options, const Dag& dag,
                                std::shared_ptr<DecisionPolicy> guide) {
  MctsScheduler mcts(options, std::move(guide));
  return mcts.schedule(dag, cap()).placements();
}

/// Every Stats counter, by name, in for_each_count order.
std::vector<std::pair<std::string, std::int64_t>> all_counts(
    const MctsScheduler::Stats& s) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  s.for_each_count([&out](const char* name, std::int64_t value) {
    out.emplace_back(name, value);
  });
  return out;
}

void expect_same_placements(const std::vector<Placement>& a,
                            const std::vector<Placement>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task) << "placement " << i;
    EXPECT_EQ(a[i].start, b[i].start) << "placement " << i;
  }
}

TEST(LeafMcts, RejectsBadBatchSize) {
  MctsOptions options = leaf_options(2);
  options.leaf_batch_size = 0;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
}

TEST(LeafMcts, SameSeedSameThreadsIsDeterministic) {
  const Dag dag = test_dag(21);
  for (const int threads : {1, 2, 4}) {
    const auto first = run_leaf(leaf_options(threads), dag, make_guide());
    const auto second = run_leaf(leaf_options(threads), dag, make_guide());
    expect_same_placements(first, second);
  }
}

TEST(LeafMcts, ResultsIndependentOfThreadCount) {
  // num_threads > 1 only selects leaf mode: the search runs on one thread,
  // rollout RNG streams are keyed by slot and backups fold in slot order,
  // so the thread count never changes the search.
  const Dag dag = test_dag(22);
  const auto reference = run_leaf(leaf_options(1), dag, make_guide());
  for (const int threads : {2, 4}) {
    expect_same_placements(reference,
                           run_leaf(leaf_options(threads), dag, make_guide()));
  }
}

TEST(LeafMcts, PureMctsAlsoThreadCountInvariant) {
  // No guide = the classic uniform-random rollout policy, which exercises
  // the sampling (RNG-consuming) pick path through the slot streams.
  const Dag dag = test_dag(23, 12);
  const auto reference = run_leaf(leaf_options(1), dag, nullptr);
  for (const int threads : {2, 4}) {
    expect_same_placements(reference,
                           run_leaf(leaf_options(threads), dag, nullptr));
  }
}

TEST(LeafMcts, IterationCountersReconcileWithBudget) {
  // Flat budget + no deadline: every searched decision runs its budget to
  // completion, so the totals must reconcile EXACTLY — the folded
  // per-job tallies cannot drop or double-count a slot.
  const Dag dag = test_dag(24);
  for (const int threads : {1, 2, 4}) {
    MctsOptions options = leaf_options(threads);
    options.decay_budget = false;
    options.initial_budget = 32;
    options.leaf_batch_size = 8;
    MctsScheduler mcts(options, make_guide());
    mcts.schedule(dag, cap());
    const auto& stats = mcts.last_stats();
    const std::int64_t searched = stats.decisions - stats.forced_decisions;
    ASSERT_GT(searched, 0);
    EXPECT_EQ(stats.iterations, searched * 32) << "threads " << threads;
    // 8-slot ticks over a 32-iteration budget: exactly 4 ticks a decision.
    EXPECT_EQ(stats.leaf_ticks, searched * 4) << "threads " << threads;
    // Every iteration runs at most one rollout (terminal and aborted
    // expansions skip theirs); every expansion probes the TT at most once.
    EXPECT_GT(stats.rollouts, 0);
    EXPECT_LE(stats.rollouts, stats.iterations);
    EXPECT_LE(stats.tt_hits + stats.tt_misses, stats.nodes_expanded);
    EXPECT_EQ(stats.deadline_cutoffs, 0);
  }
}

TEST(LeafMcts, FaultCountersThreadInvariant) {
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 9;
  const Dag dag = test_dag(25, 10);

  std::vector<MctsScheduler::Stats> per_threads;
  std::vector<std::vector<Placement>> schedules;
  for (const int threads : {1, 2, 4}) {
    MctsOptions options = leaf_options(threads);
    options.faults = std::make_shared<const FaultInjector>(fault_options, cap());
    MctsScheduler mcts(options, make_guide());
    schedules.push_back(mcts.schedule(dag, cap()).placements());
    per_threads.push_back(mcts.last_stats());
  }
  for (std::size_t i = 1; i < per_threads.size(); ++i) {
    expect_same_placements(schedules[0], schedules[i]);
    EXPECT_EQ(per_threads[0].iterations, per_threads[i].iterations);
    EXPECT_EQ(per_threads[0].search_failures, per_threads[i].search_failures);
    EXPECT_EQ(per_threads[0].search_retries, per_threads[i].search_retries);
    EXPECT_EQ(per_threads[0].search_aborts, per_threads[i].search_aborts);
    EXPECT_EQ(per_threads[0].task_failures, per_threads[i].task_failures);
    EXPECT_EQ(per_threads[0].task_retries, per_threads[i].task_retries);
  }
}

TEST(LeafMcts, VirtualLossCollisionsObserved) {
  // Multi-slot ticks force concurrent descents through shared prefixes;
  // the collision counter proves virtual loss actually engaged.
  const Dag dag = test_dag(26);
  MctsOptions options = leaf_options(2);
  options.leaf_batch_size = 16;
  MctsScheduler mcts(options, make_guide());
  mcts.schedule(dag, cap());
  EXPECT_GT(mcts.last_stats().vloss_collisions, 0);
}

TEST(LeafMcts, BatchedEvaluatorRuns) {
  // A sampling guide's rollouts never touch the state cache, so the new
  // leaves it misses reach the evaluator's fused forward.
  const Dag dag = test_dag(27);
  MctsOptions options = leaf_options(2);
  MctsScheduler mcts(options, make_guide(/*greedy=*/false));
  mcts.schedule(dag, cap());
  const auto& stats = mcts.last_stats();
  EXPECT_GT(stats.leaf_ticks, 0);
  EXPECT_GT(stats.batched_evals, 0);
  EXPECT_GE(stats.batched_rows, stats.batched_evals);
}

TEST(LeafMcts, GreedyGuideLeavesTheEvaluatorIdle) {
  // A greedy guide's new leaf takes its priors from the state cache or from
  // its own first rollout step, so the evaluator never forwards.
  const Dag dag = test_dag(27);
  MctsOptions options = leaf_options(2);
  MctsScheduler mcts(options, make_guide());
  mcts.schedule(dag, cap());
  const auto& stats = mcts.last_stats();
  EXPECT_GT(stats.leaf_ticks, 0);
  EXPECT_EQ(stats.batched_evals, 0);
  EXPECT_EQ(stats.batched_rows, 0);
  EXPECT_GT(stats.tt_hits + stats.tt_misses, 0);
  // Greedy DRL rollouts replay heavily (first-child expansion re-walks the
  // parent's rollout), so the state cache must be ending rollouts early.
  EXPECT_GT(stats.rollout_memo_hits, 0);
}

TEST(LeafMcts, CachesOffMatchCachesOnBitForBit) {
  // Priors are cached, never values, and greedy picks are pure functions
  // of the state — so disabling every cache must reproduce the schedule
  // exactly, just slower.  Small capacities under faults add eviction and
  // action-only rollout cache entries.
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 9;
  const Dag dag = test_dag(28);
  for (const auto& [capacity, faulty] :
       std::vector<std::pair<std::size_t, bool>>{
           {MctsOptions{}.transposition_capacity, false},
           {16, true},
           {256, true}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity) +
                 (faulty ? ", faults" : ""));
    MctsOptions with_cache = leaf_options(2);
    with_cache.transposition_capacity = capacity;
    if (faulty) {
      with_cache.faults =
          std::make_shared<const FaultInjector>(fault_options, cap());
    }
    MctsScheduler on(with_cache, make_guide());
    const auto on_placements = on.schedule(dag, cap()).placements();
    ASSERT_GT(on.last_stats().tt_hits + on.last_stats().tt_misses, 0);

    MctsOptions without_cache = with_cache;
    without_cache.transposition_capacity = 0;
    MctsScheduler off(without_cache, make_guide());
    const auto off_placements = off.schedule(dag, cap()).placements();
    EXPECT_EQ(off.last_stats().tt_hits, 0);
    EXPECT_EQ(off.last_stats().tt_misses, 0);
    EXPECT_EQ(off.last_stats().rollout_cache_hits, 0);
    EXPECT_EQ(off.last_stats().rollout_cache_misses, 0);

    expect_same_placements(on_placements, off_placements);
  }
}

TEST(LeafMcts, SearchCountersIndependentOfThreadCount) {
  // Leaf mode runs on one thread at every num_threads and the state cache
  // is written only at backup, in slot order, so every search counter, the
  // forward tallies and their row histogram included, is a function of
  // the seed and budget.
  FaultOptions fault_options;
  fault_options.fault_rate = 0.3;
  fault_options.seed = 9;
  const Dag dag = test_dag(42);
  for (const std::size_t capacity : {24, 8192}) {
    for (const bool faulty : {false, true}) {
      const std::string where = "capacity " + std::to_string(capacity) +
                                (faulty ? ", faults" : "");
      std::vector<std::pair<std::string, std::int64_t>> reference;
      std::vector<std::int64_t> reference_hist;
      for (const int threads : {1, 2, 4, 8}) {
        MctsOptions options = leaf_options(threads);
        options.transposition_capacity = capacity;
        if (faulty) {
          options.faults =
              std::make_shared<const FaultInjector>(fault_options, cap());
        }
        MctsScheduler mcts(options, make_guide());
        mcts.schedule(dag, cap());
        const MctsScheduler::Stats& stats = mcts.last_stats();
        if (threads == 1) {
          // The cache is in play: misses, and hits of the kind the fault
          // setting allows (makespans only without faults).
          EXPECT_GT(stats.rollout_cache_misses, 0) << where;
          if (faulty) {
            EXPECT_GT(stats.rollout_cache_hits, 0) << where;
            EXPECT_EQ(stats.rollout_memo_hits, 0) << where;
          } else {
            EXPECT_GT(stats.rollout_memo_hits, 0) << where;
            EXPECT_EQ(stats.rollout_cache_hits, 0) << where;
          }
          EXPECT_GT(stats.guide_forwards, 0) << where;
          reference = all_counts(stats);
          reference_hist = stats.batch_rows_hist;
        } else {
          EXPECT_EQ(all_counts(stats), reference)
              << where << ", threads " << threads;
          EXPECT_EQ(stats.batch_rows_hist, reference_hist)
              << where << ", threads " << threads;
        }
      }
    }
  }
}

TEST(LeafMcts, OneWorkerStatsMatchGolden) {
  // Every Stats counter, the state cache split included, is a pure
  // function of the inputs.  The golden placements and the non-cache
  // counts (in for_each_count order) were recorded with the per-worker
  // private rollout cache of earlier versions; the forward and rollout
  // cache counters were re-pinned when the rollout cache began to store
  // makespans (without faults every hit ends a rollout, so the last counter,
  // rollout_memo_hits, takes every hit).  The four forward counters
  // (batched_evals, batched_rows, guide_forwards, guide_forward_rows) and
  // the prior split (tt_hits, tt_misses) were re-pinned when one state
  // cache replaced the prior cache and the rollout cache: a new leaf's
  // priors now come from the cache or its own first rollout step, so the
  // evaluator no longer forwards (its 140 rows are gone), and a leaf an
  // earlier rollout already scored is a prior hit.  Capacity 24 forces
  // heavy FIFO eviction.
  struct Golden {
    std::size_t capacity;
    std::vector<std::int64_t> counts;
  };
  const std::vector<Golden> goldens = {
      {8192, {31, 0, 536, 519, 141, 660, 0, 0, 0, 0, 0, 0, 0, 0, 0, 306,
              683, 32, 65, 75, 440, 0, 1644, 454}},
      {24, {31, 0, 536, 519, 141, 660, 0, 0, 0, 0, 0, 0, 0, 0, 0, 424,
            1450, 32, 30, 110, 440, 0, 4343, 331}},
  };
  const std::vector<std::pair<TaskId, Time>> placements = {
      {1, 0},   {0, 0},   {2, 11},  {3, 11},  {4, 12},  {5, 22},
      {7, 28},  {6, 28},  {10, 39}, {8, 41},  {9, 52},  {11, 52},
      {12, 56}, {15, 56}, {13, 65}, {14, 67}};
  const Dag dag = test_dag(40);
  for (const Golden& golden : goldens) {
    MctsOptions options = leaf_options(1);
    options.transposition_capacity = golden.capacity;
    MctsScheduler mcts(options, make_guide());
    const auto got = mcts.schedule(dag, cap()).placements();
    ASSERT_EQ(got.size(), placements.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].task, placements[i].first) << "placement " << i;
      EXPECT_EQ(got[i].start, placements[i].second) << "placement " << i;
    }
    std::vector<std::int64_t> counts;
    mcts.last_stats().for_each_count(
        [&counts](const char*, std::int64_t value) { counts.push_back(value); });
    EXPECT_EQ(counts, golden.counts) << "capacity " << golden.capacity;
  }
}

TEST(LeafMcts, SamplingGuideKeepsRolloutCacheCold) {
  // Sampled picks consume RNG, so the action cache must stay disarmed for
  // them — a cached action would skip the draw and shift the stream.
  const Dag dag = test_dag(29, 12);
  MctsScheduler mcts(leaf_options(2), make_guide(/*greedy=*/false));
  mcts.schedule(dag, cap());
  EXPECT_EQ(mcts.last_stats().rollout_cache_hits, 0);
  EXPECT_EQ(mcts.last_stats().rollout_cache_misses, 0);
}

TEST(LeafMcts, ScheduleDetachesTheRolloutCache) {
  // Canonical keys do not encode the DAG, so a guide reused after a search
  // must not probe that search's rollout cache: the search owns the cache
  // and releases it when schedule() returns; the guide keeps none.
  const Dag searched = test_dag(41);
  auto guide = make_guide();
  MctsScheduler mcts(leaf_options(1), guide);
  mcts.schedule(searched, cap());
  ASSERT_GT(mcts.last_stats().rollout_memo_hits, 0);

  // The same shape and runtimes with the demands reversed: its early states
  // share canonical keys with the searched DAG's, not their best actions.
  DagBuilder builder;
  const auto n = static_cast<TaskId>(searched.num_tasks());
  for (TaskId t = 0; t < n; ++t) {
    builder.add_task(searched.task(t).runtime, searched.task(n - 1 - t).demand);
  }
  for (TaskId t = 0; t < n; ++t) {
    for (TaskId p : searched.parents(t)) builder.add_edge(p, t);
  }
  // Walk its states with a fresh guide's picks; the searched guide must
  // pick the same actions without a single cache hit.
  auto fresh = make_guide();
  EnvOptions env_options;
  env_options.max_ready = fresh->max_ready();
  SchedulingEnv env(std::make_shared<Dag>(std::move(builder).build()), cap(),
                    env_options);
  Rng rng(3);
  std::size_t steps = 0;
  while (!env.done()) {
    const int action = fresh->pick(env, rng);
    EXPECT_EQ(guide->pick(env, rng), action) << "step " << steps;
    if (action == SchedulingEnv::kProcessAction) {
      env.process_to_next_finish();
    } else {
      env.step(action);
    }
    ++steps;
  }
  ASSERT_GT(steps, 0u);
  EXPECT_EQ(guide->rollout_cache_hits(), 0);
  EXPECT_EQ(guide->rollout_cache_misses(), 0);
}

TEST(LeafMcts, NoTreeReuseStillValid) {
  const Dag dag = test_dag(30);
  MctsOptions options = leaf_options(2);
  options.leaf_tree_reuse = false;
  MctsScheduler mcts(options, make_guide());
  DagFeatures features(dag);
  const Time makespan = validated_makespan(mcts, dag, cap());
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
  EXPECT_GT(mcts.last_stats().leaf_ticks, 0);
}

TEST(LeafMcts, RootModeAtSeveralThreadsRunsTheLeafSearch) {
  // Leaf mode is the only parallel search: at num_threads > 1 the kRoot
  // setting must search exactly like kLeaf.
  const Dag dag = test_dag(32);
  MctsOptions root_options = leaf_options(3);
  root_options.search_mode = SearchMode::kRoot;
  MctsScheduler root(root_options, make_guide());
  MctsScheduler leaf(leaf_options(3), make_guide());
  expect_same_placements(root.schedule(dag, cap()).placements(),
                         leaf.schedule(dag, cap()).placements());

  // Every counter must agree too, the state cache's and the forward
  // tallies included.
  const auto& a = root.last_stats();
  const auto& b = leaf.last_stats();
  EXPECT_GT(a.leaf_ticks, 0);
  EXPECT_GT(a.rollout_cache_misses, 0);
  EXPECT_EQ(all_counts(a), all_counts(b));
}

TEST(LeafMcts, UncloneableGuideRunsOneWorker) {
  // Uniform weights and the default sampling pick(): the same search as
  // RandomDecisionPolicy, minus clone().
  class UncloneableGuide : public DecisionPolicy {
   public:
    std::vector<std::pair<int, double>> action_weights(
        const SchedulingEnv& env) override {
      std::vector<std::pair<int, double>> out;
      for (int action : env.valid_actions()) out.emplace_back(action, 1.0);
      return out;
    }
    // clone() keeps the default nullptr.
  };

  // The search never clones its guide, so an uncloneable guide searches at
  // two threads like any other.
  const Dag dag = test_dag(31, 10);
  const auto uncloneable =
      run_leaf(leaf_options(2), dag, std::make_shared<UncloneableGuide>());
  expect_same_placements(
      run_leaf(leaf_options(2), dag, std::make_shared<RandomDecisionPolicy>()),
      uncloneable);
}

}  // namespace
}  // namespace spear
