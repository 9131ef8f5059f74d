#include "mcts/mcts.h"

#include <memory>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "sched/random_scheduler.h"
#include "sched/tetris.h"
#include "support/brute_force.h"
#include "support/builders.h"

namespace spear {
namespace {

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

SchedulingEnv make_env(Dag dag) {
  EnvOptions options;
  options.max_ready = std::max<std::size_t>(dag.num_tasks(), 1);
  return SchedulingEnv(std::make_shared<Dag>(std::move(dag)), cap(), options);
}

TEST(SearchTree, AddChildAndBackpropagate) {
  SearchTree tree(make_env(testing::make_chain({1, 2})));
  const NodeId root = tree.root();
  EXPECT_EQ(tree.size(), 1u);

  SchedulingEnv child_state = tree.node(root).state;
  child_state.step(0);
  const NodeId child = tree.add_child(root, 0, std::move(child_state));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.node(child).parent, root);
  EXPECT_EQ(tree.node(child).action_from_parent, 0);
  EXPECT_EQ(tree.node(root).children, std::vector<NodeId>{child});

  tree.backpropagate(child, -10.0);
  tree.backpropagate(child, -4.0);
  EXPECT_EQ(tree.node(child).visits, 2);
  EXPECT_DOUBLE_EQ(tree.node(child).max_value, -4.0);
  EXPECT_DOUBLE_EQ(tree.node(child).mean_value(), -7.0);
  EXPECT_EQ(tree.node(root).visits, 2);
  EXPECT_DOUBLE_EQ(tree.node(root).max_value, -4.0);
}

TEST(Mcts, RejectsBadOptions) {
  MctsOptions options;
  options.initial_budget = 0;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
  options = {};
  options.min_budget = -1;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
  options = {};
  options.exploration_scale = -0.5;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
}

TEST(Mcts, SingleTaskIsTrivial) {
  MctsOptions options;
  options.initial_budget = 10;
  options.min_budget = 2;
  MctsScheduler mcts(options);
  Dag dag = testing::make_chain({5});
  EXPECT_EQ(validated_makespan(mcts, dag, cap()), 5);
}

TEST(Mcts, ChainIsSequential) {
  MctsOptions options;
  options.initial_budget = 20;
  options.min_budget = 3;
  MctsScheduler mcts(options);
  Dag dag = testing::make_chain({2, 3, 4});
  EXPECT_EQ(validated_makespan(mcts, dag, cap()), 9);
}

TEST(Mcts, PacksIndependentTasksOptimally) {
  MctsOptions options;
  options.initial_budget = 50;
  options.min_budget = 10;
  MctsScheduler mcts(options);
  Dag dag = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  EXPECT_EQ(validated_makespan(mcts, dag, cap()), 10);
}

TEST(Mcts, StatsArePopulated) {
  MctsOptions options;
  options.initial_budget = 30;
  options.min_budget = 5;
  MctsScheduler mcts(options);
  Dag dag = testing::make_independent(4, 3, ResourceVector{0.4, 0.4});
  mcts.schedule(dag, cap());
  const auto& stats = mcts.last_stats();
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.rollouts, 0);
}

TEST(Mcts, ForcedMovesSkipSearch) {
  // A pure chain has exactly one valid action at every decision, so no
  // search iterations should be spent at all.
  MctsOptions options;
  options.initial_budget = 1000;
  options.min_budget = 100;
  MctsScheduler mcts(options);
  Dag dag = testing::make_chain({2, 2, 2});
  mcts.schedule(dag, cap());
  EXPECT_EQ(mcts.last_stats().iterations, 0);
}

TEST(Mcts, DeterministicGivenSeed) {
  DagGeneratorOptions gen;
  gen.num_tasks = 15;
  Rng rng(3);
  Dag dag = generate_random_dag(gen, rng);
  MctsOptions options;
  options.initial_budget = 40;
  options.min_budget = 8;
  options.seed = 77;
  MctsScheduler a(options), b(options);
  EXPECT_EQ(a.schedule(dag, cap()).makespan(dag),
            b.schedule(dag, cap()).makespan(dag));
}

TEST(Mcts, FindsOptimalOnSmallInstances) {
  // Brute-force-verified optimality on tiny random DAGs.
  DagGeneratorOptions gen;
  gen.num_tasks = 6;
  gen.max_width = 3;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    Dag dag = generate_random_dag(gen, rng);
    const auto optimal = testing::optimal_makespan(dag, cap());
    ASSERT_TRUE(optimal.has_value());

    MctsOptions options;
    options.initial_budget = 300;
    options.min_budget = 100;
    options.seed = seed;
    MctsScheduler mcts(options);
    EXPECT_EQ(validated_makespan(mcts, dag, cap()), *optimal)
        << "seed " << seed;
  }
}

TEST(Mcts, BeatsRandomSchedulingOnAverage) {
  DagGeneratorOptions gen;
  gen.num_tasks = 20;
  Rng rng(9);
  double mcts_total = 0.0, random_total = 0.0;
  for (int i = 0; i < 3; ++i) {
    Dag dag = generate_random_dag(gen, rng);
    MctsOptions options;
    options.initial_budget = 100;
    options.min_budget = 20;
    options.seed = static_cast<std::uint64_t>(i);
    MctsScheduler mcts(options);
    mcts_total += static_cast<double>(validated_makespan(mcts, dag, cap()));
    auto random = make_random_scheduler(static_cast<std::uint64_t>(i));
    random_total +=
        static_cast<double>(validated_makespan(*random, dag, cap()));
  }
  EXPECT_LE(mcts_total, random_total);
}

TEST(Mcts, MoreBudgetDoesNotHurtOnAverage) {
  // The paper's Fig. 7(a) trend, in miniature: across a few DAGs, total
  // makespan with a large budget <= with a tiny budget.
  DagGeneratorOptions gen;
  gen.num_tasks = 15;
  Rng rng(10);
  double small_total = 0.0, large_total = 0.0;
  for (int i = 0; i < 4; ++i) {
    Dag dag = generate_random_dag(gen, rng);
    MctsOptions small;
    small.initial_budget = 5;
    small.min_budget = 2;
    small.seed = 1;
    MctsScheduler s(small);
    small_total += static_cast<double>(validated_makespan(s, dag, cap()));
    MctsOptions large;
    large.initial_budget = 200;
    large.min_budget = 50;
    large.seed = 1;
    MctsScheduler l(large);
    large_total += static_cast<double>(validated_makespan(l, dag, cap()));
  }
  EXPECT_LE(large_total, small_total);
}

TEST(Mcts, MeanBackpropAblationStillValid) {
  DagGeneratorOptions gen;
  gen.num_tasks = 15;
  Rng rng(12);
  Dag dag = generate_random_dag(gen, rng);
  MctsOptions options;
  options.initial_budget = 50;
  options.min_budget = 10;
  options.max_backprop = false;  // classic mean-value UCB
  MctsScheduler mcts(options);
  DagFeatures features(dag);
  const Time makespan = validated_makespan(mcts, dag, cap());
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
}

TEST(Mcts, FlatBudgetAblationUsesMoreIterations) {
  DagGeneratorOptions gen;
  gen.num_tasks = 12;
  Rng rng(13);
  Dag dag = generate_random_dag(gen, rng);

  MctsOptions decayed;
  decayed.initial_budget = 60;
  decayed.min_budget = 5;
  decayed.seed = 3;
  MctsScheduler with_decay(decayed);
  with_decay.schedule(dag, cap());

  MctsOptions flat = decayed;
  flat.decay_budget = false;
  MctsScheduler without_decay(flat);
  without_decay.schedule(dag, cap());

  EXPECT_GT(without_decay.last_stats().iterations,
            with_decay.last_stats().iterations);
}

TEST(Mcts, TreeReuseProducesValidSchedules) {
  DagGeneratorOptions gen;
  gen.num_tasks = 20;
  Rng rng(14);
  Dag dag = generate_random_dag(gen, rng);
  MctsOptions options;
  options.initial_budget = 60;
  options.min_budget = 10;
  options.reuse_tree = true;
  MctsScheduler mcts(options);
  DagFeatures features(dag);
  const Time makespan = validated_makespan(mcts, dag, cap());
  EXPECT_GE(makespan, features.critical_path());
  EXPECT_LE(makespan, dag.total_runtime());
  EXPECT_GT(mcts.last_stats().decisions, 0);
}

TEST(Mcts, TreeReuseStillFindsOptimalOnSmallInstance) {
  Dag dag = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  MctsOptions options;
  options.initial_budget = 80;
  options.min_budget = 20;
  options.reuse_tree = true;
  MctsScheduler mcts(options);
  EXPECT_EQ(validated_makespan(mcts, dag, cap()), 10);
}

TEST(SearchTree, RerootKeepsSubtreeStatistics) {
  SearchTree tree(make_env(testing::make_independent(
      3, 2, ResourceVector{0.3, 0.3})));
  SearchNode& root = tree.node(tree.root());
  root.untried = {{0, 1.0}, {1, 0.5}};

  SchedulingEnv child_state = root.state;
  child_state.step(0);
  const NodeId child = tree.add_child(tree.root(), 0, std::move(child_state));
  tree.node(child).untried = {{1, 1.0}};
  SchedulingEnv grandchild_state = tree.node(child).state;
  grandchild_state.step(1);
  const NodeId grandchild =
      tree.add_child(child, 1, std::move(grandchild_state));
  tree.backpropagate(grandchild, -12.0);
  tree.backpropagate(child, -20.0);

  SearchTree rerooted = tree.reroot(child);
  const SearchNode& new_root = rerooted.node(rerooted.root());
  EXPECT_EQ(new_root.parent, kNoNode);
  EXPECT_EQ(new_root.visits, 2);
  EXPECT_DOUBLE_EQ(new_root.max_value, -12.0);
  EXPECT_EQ(new_root.untried.size(), 1u);
  ASSERT_EQ(new_root.children.size(), 1u);
  const SearchNode& moved_grandchild =
      rerooted.node(new_root.children.front());
  EXPECT_EQ(moved_grandchild.action_from_parent, 1);
  EXPECT_DOUBLE_EQ(moved_grandchild.max_value, -12.0);
  EXPECT_EQ(rerooted.size(), 2u);  // sibling-free: only the subtree
}

TEST(Mcts, RejectsNonPositiveThreadCount) {
  MctsOptions options;
  options.num_threads = 0;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
  options.num_threads = -2;
  EXPECT_THROW(MctsScheduler{options}, std::invalid_argument);
}

TEST(Mcts, ParallelPacksIndependentTasksOptimally) {
  MctsOptions options;
  options.initial_budget = 50;
  options.min_budget = 10;
  options.num_threads = 4;
  MctsScheduler mcts(options);
  Dag dag = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  EXPECT_EQ(validated_makespan(mcts, dag, cap()), 10);
}

TEST(Mcts, ParallelMatchesSerialOptimaOnSmallInstances) {
  // Makespan parity: on brute-force-verified instances, the leaf-parallel
  // search must find the same optimum the serial search finds.
  DagGeneratorOptions gen;
  gen.num_tasks = 6;
  gen.max_width = 3;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    Dag dag = generate_random_dag(gen, rng);
    const auto optimal = testing::optimal_makespan(dag, cap());
    ASSERT_TRUE(optimal.has_value());

    MctsOptions options;
    options.initial_budget = 300;
    options.min_budget = 100;
    options.seed = seed;
    options.num_threads = 4;
    MctsScheduler mcts(options);
    EXPECT_EQ(validated_makespan(mcts, dag, cap()), *optimal)
        << "seed " << seed;
  }
}

TEST(Mcts, ParallelTelemetryPopulated) {
  MctsOptions options;
  options.initial_budget = 30;
  options.min_budget = 6;
  options.num_threads = 2;
  MctsScheduler mcts(options);
  Dag dag = testing::make_independent(4, 3, ResourceVector{0.4, 0.4});
  mcts.schedule(dag, cap());
  const auto& stats = mcts.last_stats();
  EXPECT_GT(stats.decisions, 0);
  EXPECT_GT(stats.iterations, 0);
  EXPECT_GT(stats.rollouts, 0);
  EXPECT_GT(stats.nodes_expanded, 0);
  EXPECT_GT(stats.env_copies, 0);
  EXPECT_GT(stats.search_seconds, 0.0);
  EXPECT_GT(stats.seconds_per_decision(), 0.0);
  EXPECT_GT(stats.iterations_per_second(), 0.0);
}

TEST(Mcts, SerialTelemetryPopulated) {
  MctsOptions options;
  options.initial_budget = 30;
  options.min_budget = 5;
  MctsScheduler mcts(options);
  Dag dag = testing::make_independent(4, 3, ResourceVector{0.4, 0.4});
  mcts.schedule(dag, cap());
  const auto& stats = mcts.last_stats();
  EXPECT_GT(stats.nodes_expanded, 0);
  EXPECT_GT(stats.env_copies, 0);
  EXPECT_GT(stats.search_seconds, 0.0);
  // Each iteration expands at most one node and copies the env at most
  // twice (child snapshot + rollout start).
  EXPECT_LE(stats.nodes_expanded, stats.iterations);
  EXPECT_LE(stats.env_copies, 2 * stats.iterations);
}

TEST(Mcts, SerialAndParallelStatsAccountIdentically) {
  // With a flat budget and no deadline, every searched decision consumes
  // exactly initial_budget iterations: trivially in the serial mode, and in
  // leaf mode because the ticks' slots sum to the budget.  The parallel half
  // of this invariant only holds when the backup folds every slot's
  // telemetry in — a dropped accumulator undercounts.
  DagGeneratorOptions gen;
  gen.num_tasks = 12;
  Rng rng(5);
  Dag dag = generate_random_dag(gen, rng);

  const std::int64_t budget = 48;
  const auto run = [&](int threads) {
    MctsOptions options;
    options.initial_budget = budget;
    options.min_budget = budget;
    options.decay_budget = false;
    options.seed = 21;
    options.num_threads = threads;
    MctsScheduler mcts(options);
    mcts.schedule(dag, cap());
    return mcts.last_stats();
  };

  for (const int threads : {1, 3, 4}) {
    const auto stats = run(threads);
    ASSERT_GT(stats.searched_decisions(), 0) << "threads " << threads;
    EXPECT_EQ(stats.iterations, stats.searched_decisions() * budget)
        << "threads " << threads;
    // Terminal/aborted leaves backpropagate without a rollout.
    EXPECT_GT(stats.rollouts, 0) << "threads " << threads;
    EXPECT_LE(stats.rollouts, stats.iterations) << "threads " << threads;
    EXPECT_LE(stats.nodes_expanded, stats.iterations)
        << "threads " << threads;
    EXPECT_EQ(stats.decisions,
              stats.searched_decisions() + stats.forced_decisions)
        << "threads " << threads;
  }
}

TEST(GreedyEstimate, MatchesHeuristicRollout) {
  Dag dag = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  auto env = make_env(dag);
  EXPECT_EQ(greedy_makespan_estimate(env), 10);
  Dag chain = testing::make_chain({2, 3});
  auto env2 = make_env(chain);
  EXPECT_EQ(greedy_makespan_estimate(env2), 5);
}

TEST(DecisionPolicies, RandomWeightsAreUniformOverValid) {
  RandomDecisionPolicy policy;
  auto env = make_env(testing::make_independent(3, 2, ResourceVector{0.3, 0.3}));
  const auto weights = policy.action_weights(env);
  ASSERT_EQ(weights.size(), 3u);  // idle cluster: no process action
  for (const auto& [action, w] : weights) {
    EXPECT_GE(action, 0);
    EXPECT_DOUBLE_EQ(w, 1.0);
  }
}

TEST(DecisionPolicies, HeuristicIncludesProcessWhenBusy) {
  HeuristicDecisionPolicy policy;
  auto env = make_env(testing::make_independent(2, 4, ResourceVector{0.4, 0.4}));
  env.step(0);
  const auto weights = policy.action_weights(env);
  bool has_process = false;
  for (const auto& [action, w] : weights) {
    if (action == SchedulingEnv::kProcessAction) has_process = true;
    EXPECT_GT(w, 0.0);
  }
  EXPECT_TRUE(has_process);
}

TEST(DecisionPolicies, WeightsAreReturnedInDescendingOrder) {
  // The action_weights ordering contract: MCTS pops untried actions from
  // the front, so policies must pre-sort by descending weight.
  HeuristicDecisionPolicy policy;
  auto env = make_env(testing::make_independent(3, 4, ResourceVector{0.3, 0.3}));
  env.step(0);
  const auto weights = policy.action_weights(env);
  ASSERT_GE(weights.size(), 2u);
  for (std::size_t i = 1; i < weights.size(); ++i) {
    EXPECT_GE(weights[i - 1].second, weights[i].second);
  }
}

TEST(DecisionPolicies, BuiltinPoliciesAreCloneable) {
  RandomDecisionPolicy random;
  HeuristicDecisionPolicy heuristic;
  auto random_clone = random.clone();
  auto heuristic_clone = heuristic.clone();
  ASSERT_NE(random_clone, nullptr);
  ASSERT_NE(heuristic_clone, nullptr);
  // Clones behave like the originals.
  auto env = make_env(testing::make_independent(3, 2, ResourceVector{0.3, 0.3}));
  EXPECT_EQ(random_clone->action_weights(env).size(),
            random.action_weights(env).size());
  Rng rng(1);
  EXPECT_EQ(heuristic_clone->pick(env, rng), heuristic.pick(env, rng));
}

TEST(DecisionPolicies, HeuristicPickPrefersSchedulingOverProcess) {
  HeuristicDecisionPolicy policy;
  auto env = make_env(testing::make_independent(2, 4, ResourceVector{0.3, 0.3}));
  env.step(0);
  Rng rng(1);
  const int action = policy.pick(env, rng);
  EXPECT_GE(action, 0);  // schedules the remaining fitting task
}

TEST(DecisionPolicies, PickFallsBackToUniformOnZeroWeights) {
  // A custom policy returning all-zero weights must still pick something.
  class ZeroPolicy : public DecisionPolicy {
   public:
    std::vector<std::pair<int, double>> action_weights(
        const SchedulingEnv& env) override {
      std::vector<std::pair<int, double>> out;
      for (int a : env.valid_actions()) out.emplace_back(a, 0.0);
      return out;
    }
  };
  ZeroPolicy policy;
  auto env = make_env(testing::make_independent(2, 2, ResourceVector{0.2, 0.2}));
  Rng rng(2);
  const int action = policy.pick(env, rng);
  EXPECT_TRUE(action == 0 || action == 1);
}

}  // namespace
}  // namespace spear
