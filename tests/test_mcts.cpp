#include "mcts/mcts.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dag/generator.h"
#include "fault/fault.h"
#include "rl/policy.h"
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

TEST(Mcts, TreeReuseStillFindsOptimalOnSmallInstance) {
  // Subtree reuse is leaf mode's (leaf_tree_reuse, on by default), so this
  // runs the one-thread leaf search.
  Dag dag = testing::make_independent(4, 5, ResourceVector{0.5, 0.5});
  MctsOptions options;
  options.initial_budget = 80;
  options.min_budget = 20;
  options.search_mode = SearchMode::kLeaf;
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

// Serial-search golden: placements (as an FNV-1a hash of the (task, start)
// sequence) and search counters of one-thread SearchMode::kRoot schedules
// over 4 DAGs x 4 guides x {no faults, fault_rate 0.15}.  Any change to the
// serial search's RNG draws, expansion order or accounting shows up here.
std::uint64_t placement_hash(const std::vector<Placement>& placements) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Placement& p : placements) {
    mix(p.task);
    mix(p.start);
  }
  return h;
}

// The golden grid's DAG k, guide and search options.
const std::vector<std::string> kGoldenGuides = {"random", "heuristic",
                                                "drl-greedy", "drl-sampling"};

Dag golden_dag(std::uint64_t k) {
  DagGeneratorOptions gen;
  gen.num_tasks = 20;
  Rng dag_rng(300 + k);
  return generate_random_dag(gen, dag_rng);
}

std::shared_ptr<DecisionPolicy> golden_guide(const std::string& name) {
  if (name == "heuristic") return std::make_shared<HeuristicDecisionPolicy>();
  if (name == "random") return nullptr;
  Rng policy_rng(5);
  return std::make_shared<DrlDecisionPolicy>(
      std::make_shared<const Policy>(
          Policy::make(FeaturizerOptions{}, 2, policy_rng, {16})),
      /*greedy=*/name == "drl-greedy");
}

MctsOptions golden_options(std::uint64_t k, bool faulty) {
  MctsOptions options;
  options.initial_budget = 120;
  options.min_budget = 20;
  options.seed = 9 + k;
  if (faulty) {
    FaultOptions fault_options;
    fault_options.fault_rate = 0.15;
    fault_options.seed = 11;
    options.faults =
        std::make_shared<const FaultInjector>(fault_options, cap());
    // The fewest retries under which this fault trace lets every real
    // trajectory finish.
    options.retry.max_retries = 4;
  }
  return options;
}

/// The search counters the serial golden pins.
std::vector<std::int64_t> golden_counts(const MctsScheduler::Stats& s) {
  return {s.decisions,      s.iterations,      s.rollouts,
          s.nodes_expanded, s.env_copies,      s.search_failures,
          s.search_retries, s.search_aborts,   s.task_failures};
}

TEST(SerialSearchGolden, PlacementsAndCountsMatchParent) {
  // {placement hash, decisions, iterations, rollouts, nodes_expanded,
  //  env_copies, search_failures, search_retries, search_aborts,
  //  task_failures}, in (dag, guide, faults) order.
  struct Golden {
    std::uint64_t hash;
    std::vector<std::int64_t> counts;
  };
  const std::vector<Golden> goldens = {
      {0xcea4ac9eaed22e24ULL, {39, 610, 598, 601, 1199, 0, 0, 0, 0}},
      {0x12300ba9bbd7b30aULL, {58, 850, 832, 836, 1668, 3374, 3374, 0, 7}},
      {0x978f72368a1e7870ULL, {39, 550, 538, 541, 1079, 0, 0, 0, 0}},
      {0x273474797c1efac2ULL, {57, 770, 762, 765, 1527, 3020, 3020, 0, 7}},
      {0xdff130065d22aa03ULL, {40, 610, 598, 601, 1199, 0, 0, 0, 0}},
      {0x4fabbec1f7d62cadULL, {59, 870, 865, 866, 1731, 3308, 3308, 0, 7}},
      {0xf6d87987dccf12aeULL, {39, 590, 577, 581, 1158, 0, 0, 0, 0}},
      {0xf6dbed9c644d2121ULL, {58, 870, 862, 865, 1727, 3735, 3735, 0, 7}},
      {0xb9bd1dc9f0a71ebbULL, {38, 570, 558, 561, 1119, 0, 0, 0, 0}},
      {0xfd93e022c6bc61d3ULL, {60, 870, 858, 861, 1719, 3654, 3654, 0, 7}},
      {0xfa91365a4428b774ULL, {38, 570, 558, 561, 1119, 0, 0, 0, 0}},
      {0xb1b4b6c3c5c35c6fULL, {54, 770, 758, 761, 1519, 2990, 2990, 0, 7}},
      {0xe358516fd9d74cd7ULL, {39, 570, 558, 561, 1119, 0, 0, 0, 0}},
      {0x859bd808424e4d7aULL, {57, 730, 718, 721, 1439, 2919, 2919, 0, 7}},
      {0x990baf0b6931a8bcULL, {37, 594, 582, 585, 1167, 0, 0, 0, 0}},
      {0x4b50c353250f8406ULL, {58, 730, 718, 721, 1439, 2880, 2880, 0, 7}},
      {0x6a272d51d446fa89ULL, {38, 540, 514, 520, 1034, 0, 0, 0, 0}},
      {0x2d0d1272e69f1551ULL, {58, 710, 691, 695, 1386, 3074, 3074, 0, 7}},
      {0x0554e85a672f39ebULL, {37, 530, 504, 510, 1014, 0, 0, 0, 0}},
      {0x962000c1b5870d98ULL, {60, 750, 726, 731, 1457, 2951, 2951, 0, 7}},
      {0x2625c7c0a0d2f660ULL, {39, 590, 564, 570, 1134, 0, 0, 0, 0}},
      {0x0e6519a9fb197e58ULL, {59, 870, 851, 855, 1706, 3079, 3079, 0, 7}},
      {0xdb5cf31bd0101c9dULL, {38, 530, 504, 510, 1014, 0, 0, 0, 0}},
      {0x9cebe39572b8050cULL, {59, 730, 711, 715, 1426, 3030, 3030, 0, 7}},
      {0xb0e170972addd3b6ULL, {39, 624, 607, 610, 1217, 0, 0, 0, 0}},
      {0x187368fdbca2104fULL, {60, 764, 746, 750, 1496, 2758, 2758, 0, 7}},
      {0x7bc5cfc020984397ULL, {40, 584, 567, 570, 1137, 0, 0, 0, 0}},
      {0x8d9be4f4016ee357ULL, {58, 780, 762, 766, 1528, 2732, 2732, 0, 7}},
      {0x75260fdd05951355ULL, {38, 624, 598, 604, 1202, 0, 0, 0, 0}},
      {0x4507d4c567fa2313ULL, {61, 770, 753, 756, 1509, 3035, 3035, 0, 7}},
      {0xd2cc56efb5da4984ULL, {39, 624, 605, 608, 1213, 0, 0, 0, 0}},
      {0xcdd0d4fa204cf319ULL, {61, 720, 702, 706, 1408, 2892, 2892, 0, 7}},
  };
  std::size_t index = 0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Dag dag = golden_dag(k);
    for (const std::string& name : kGoldenGuides) {
      for (const bool faulty : {false, true}) {
        MctsScheduler mcts(golden_options(k, faulty), golden_guide(name));
        const auto placements = mcts.schedule(dag, cap()).placements();
        const std::vector<std::int64_t> counts =
            golden_counts(mcts.last_stats());
        const std::string where = "dag " + std::to_string(k) + ", " + name +
                                  (faulty ? ", faults" : "");
        ASSERT_LT(index, goldens.size()) << where;
        EXPECT_EQ(placement_hash(placements), goldens[index].hash) << where;
        EXPECT_EQ(counts, goldens[index].counts) << where;
        ++index;
      }
    }
  }
  EXPECT_EQ(index, goldens.size());
}

// The serial search arms its state cache like every other configuration.
// The cache's contract (full-key compare, priors a pure function of the
// state, a greedy pick is the front of its priors and consumes no RNG,
// sampling rollouts never use the cache, entries published only at backup)
// makes the armed search equal the cache-less one bit for bit; only the
// cache and forward counters may differ.
TEST(SerialSearch, CachesOnMatchCachesOffBitForBit) {
  using Stats = MctsScheduler::Stats;
  const auto all_counts = [](const Stats& s) {
    std::vector<std::pair<std::string, std::int64_t>> out;
    s.for_each_count([&out](const char* name, std::int64_t value) {
      out.emplace_back(name, value);
    });
    return out;
  };
  for (std::uint64_t k = 0; k < 2; ++k) {
    const Dag dag = golden_dag(k);
    for (const std::string& name : kGoldenGuides) {
      for (const bool faulty : {false, true}) {
        const std::string where = "dag " + std::to_string(k) + ", " + name +
                                  (faulty ? ", faults" : "");
        MctsOptions options = golden_options(k, faulty);
        MctsScheduler armed(options, golden_guide(name));
        const std::uint64_t on_hash =
            placement_hash(armed.schedule(dag, cap()).placements());
        const Stats on = armed.last_stats();
        // The caches are rebuilt per schedule: a second run of the same
        // scheduler repeats every counter.
        const std::uint64_t again_hash =
            placement_hash(armed.schedule(dag, cap()).placements());
        EXPECT_EQ(again_hash, on_hash) << where;
        EXPECT_EQ(all_counts(armed.last_stats()), all_counts(on)) << where;

        options.transposition_capacity = 0;
        MctsScheduler bare(options, golden_guide(name));
        const std::uint64_t off_hash =
            placement_hash(bare.schedule(dag, cap()).placements());
        const Stats& off = bare.last_stats();

        EXPECT_EQ(on_hash, off_hash) << where;
        EXPECT_EQ(golden_counts(on), golden_counts(off)) << where;
        EXPECT_GT(on.tt_hits + on.tt_misses, 0) << where;
        EXPECT_EQ(off.tt_hits, 0) << where;
        EXPECT_EQ(off.tt_misses, 0) << where;
        EXPECT_EQ(off.rollout_cache_hits, 0) << where;
        EXPECT_EQ(off.rollout_cache_misses, 0) << where;
        EXPECT_EQ(off.rollout_memo_hits, 0) << where;
        if (name == "drl-greedy") {
          EXPECT_LT(on.guide_forward_rows, off.guide_forward_rows) << where;
          if (faulty) {
            // Fault draws are not in the key: the rollout cache's entries
            // carry no makespan, so a revisit takes the cached action.
            EXPECT_GT(on.rollout_cache_hits, 0) << where;
            EXPECT_EQ(on.rollout_memo_hits, 0) << where;
          } else {
            // A cached makespan ends a rollout at the first revisited
            // state.
            EXPECT_GT(on.rollout_memo_hits, 0) << where;
          }
        } else {
          EXPECT_EQ(on.rollout_memo_hits, 0) << where;
        }
        if (name == "drl-sampling") {
          EXPECT_EQ(on.rollout_cache_hits, 0) << where;
          EXPECT_EQ(on.rollout_cache_misses, 0) << where;
        }
      }
    }
  }
}

// The rollout memo is exact at any capacity: a capacity small enough to
// evict loses entries, never results.  Placements and the pinned counters
// match the cache-less search over the whole golden grid.
TEST(SerialSearch, RolloutMemoMatchesCachesOffUnderEviction) {
  for (std::uint64_t k = 0; k < 4; ++k) {
    const Dag dag = golden_dag(k);
    for (const std::string& name : kGoldenGuides) {
      for (const bool faulty : {false, true}) {
        const std::string where = "dag " + std::to_string(k) + ", " + name +
                                  (faulty ? ", faults" : "");
        MctsOptions options = golden_options(k, faulty);
        options.transposition_capacity = 0;
        MctsScheduler bare(options, golden_guide(name));
        const std::uint64_t off_hash =
            placement_hash(bare.schedule(dag, cap()).placements());
        const std::vector<std::int64_t> off_counts =
            golden_counts(bare.last_stats());
        for (const std::size_t capacity : {16, 256}) {
          options.transposition_capacity = capacity;
          MctsScheduler small(options, golden_guide(name));
          const std::uint64_t on_hash =
              placement_hash(small.schedule(dag, cap()).placements());
          const MctsScheduler::Stats& on = small.last_stats();
          const std::string at =
              where + ", capacity " + std::to_string(capacity);
          EXPECT_EQ(on_hash, off_hash) << at;
          EXPECT_EQ(golden_counts(on), off_counts) << at;
          if (name == "drl-greedy" && !faulty) {
            EXPECT_GT(on.rollout_memo_hits, 0) << at;
          } else {
            EXPECT_EQ(on.rollout_memo_hits, 0) << at;
          }
        }
      }
    }
  }
}

// Only a guide whose picks are a pure function of the state marks the
// rollout cache it keeps: greedy DRL does, sampling DRL and the heuristic
// guide (which never keeps the cache) do not.
TEST(SerialSearch, OnlyAPureGuideMarksTheRolloutCache) {
  for (const char* name : {"drl-greedy", "drl-sampling", "heuristic"}) {
    auto cache = std::make_shared<SharedActionCache>(16);
    golden_guide(name)->share_rollout_cache(cache);
    EXPECT_EQ(cache->kept_by_pure_guide(), std::string(name) == "drl-greedy")
        << name;
  }
}

// The promise a guide makes by marking the state cache pure: its pick is
// the front of its own priors and draws nothing from the RNG, so the search
// may take a rollout step from cached priors.  Checked for the greedy DRL
// guide on every state of episodes over the golden DAGs (one following the
// guide, three taking uniformly random valid actions).  A copy of the guide
// with its output layer zeroed gives every valid action the same weight, so
// it checks ties at the top: the pick and the priors' front are both the
// first valid action in output order.
TEST(PureGuide, GreedyDrlPickIsTheFrontOfItsPriors) {
  Rng policy_rng(5);
  Policy flat = Policy::make(FeaturizerOptions{}, 2, policy_rng, {16});
  Mlp::Layer& output = flat.net().layers().back();
  output.weights.fill(0.0);
  std::fill(output.bias.begin(), output.bias.end(), 0.0);
  const std::vector<std::shared_ptr<DecisionPolicy>> guides = {
      golden_guide("drl-greedy"),
      std::make_shared<DrlDecisionPolicy>(
          std::make_shared<const Policy>(std::move(flat)), /*greedy=*/true)};
  std::size_t states = 0;
  std::size_t ties = 0;
  for (std::size_t g = 0; g < guides.size(); ++g) {
    DecisionPolicy& guide = *guides[g];
    for (std::uint64_t k = 0; k < 4; ++k) {
      const auto dag = std::make_shared<Dag>(golden_dag(k));
      EnvOptions env_options;
      env_options.max_ready = ready_window(guide, *dag);
      for (std::uint64_t episode = 0; episode < 4; ++episode) {
        SchedulingEnv env(dag, cap(), env_options);
        Rng walk(100 * k + episode);
        while (!env.done()) {
          const std::string where =
              "guide " + std::to_string(g) + ", dag " + std::to_string(k) +
              ", episode " + std::to_string(episode);
          const auto priors = guide.action_weights(env);
          ASSERT_FALSE(priors.empty()) << where;
          if (priors.size() > 1 && priors[0].second == priors[1].second) {
            ++ties;
          }
          Rng rng(7 + states);
          Rng untouched = rng;
          const int pick = guide.pick(env, rng);
          EXPECT_EQ(pick, priors.front().first) << where;
          EXPECT_EQ(rng.next_u64(), untouched.next_u64()) << where;
          ++states;
          const auto actions = env.valid_actions();
          env.apply(episode == 0
                        ? pick
                        : actions[static_cast<std::size_t>(walk.uniform_int(
                              0, static_cast<std::int64_t>(actions.size()) -
                                     1))]);
        }
      }
    }
  }
  EXPECT_GT(states, 0u);
  EXPECT_GT(ties, 0u);
}

/// Forwards every DecisionPolicy virtual to the wrapped guide, the way a
/// timing or logging decorator does.
class ForwardingGuide final : public DecisionPolicy {
 public:
  explicit ForwardingGuide(std::shared_ptr<DecisionPolicy> inner)
      : inner_(std::move(inner)) {}

  std::vector<std::pair<int, double>> action_weights(
      const SchedulingEnv& env) override {
    return inner_->action_weights(env);
  }
  int pick(const SchedulingEnv& env, Rng& rng) override {
    return inner_->pick(env, rng);
  }
  void pick_batch(const SchedulingEnv* const* envs, std::size_t n,
                  Rng* const* rngs, int* out) override {
    inner_->pick_batch(envs, n, rngs, out);
  }
  bool supports_batch_eval() const override {
    return inner_->supports_batch_eval();
  }
  std::vector<std::vector<std::pair<int, double>>> action_weights_batch(
      const SchedulingEnv* const* envs, std::size_t n) override {
    return inner_->action_weights_batch(envs, n);
  }
  std::shared_ptr<DecisionPolicy> clone() const override {
    auto inner = inner_->clone();
    if (!inner) return nullptr;
    return std::make_shared<ForwardingGuide>(std::move(inner));
  }
  void enable_rollout_cache(std::size_t capacity) override {
    inner_->enable_rollout_cache(capacity);
  }
  void share_rollout_cache(std::shared_ptr<SharedActionCache> cache) override {
    inner_->share_rollout_cache(std::move(cache));
  }
  std::int64_t rollout_cache_hits() const override {
    return inner_->rollout_cache_hits();
  }
  std::int64_t rollout_cache_misses() const override {
    return inner_->rollout_cache_misses();
  }
  const std::vector<std::int64_t>* forward_hist() const override {
    return inner_->forward_hist();
  }
  std::int64_t forward_calls() const override {
    return inner_->forward_calls();
  }
  std::int64_t forward_rows() const override { return inner_->forward_rows(); }
  void reset_forward_stats() override { inner_->reset_forward_stats(); }

 private:
  std::shared_ptr<DecisionPolicy> inner_;
};

// The memo's purity signal rides on the rollout cache object, so a
// decorator that forwards share_rollout_cache arms the memo exactly as the
// bare guide does: same placements, same counters, memo hits included.
TEST(SerialSearch, RolloutMemoSurvivesForwardingDecorator) {
  const auto all_counts = [](const MctsScheduler::Stats& s) {
    std::vector<std::int64_t> out;
    s.for_each_count(
        [&out](const char*, std::int64_t value) { out.push_back(value); });
    return out;
  };
  for (std::uint64_t k = 0; k < 2; ++k) {
    const Dag dag = golden_dag(k);
    const std::string where = "dag " + std::to_string(k);
    MctsScheduler bare(golden_options(k, false), golden_guide("drl-greedy"));
    MctsScheduler wrapped(
        golden_options(k, false),
        std::make_shared<ForwardingGuide>(golden_guide("drl-greedy")));
    const std::uint64_t bare_hash =
        placement_hash(bare.schedule(dag, cap()).placements());
    const std::uint64_t wrapped_hash =
        placement_hash(wrapped.schedule(dag, cap()).placements());
    EXPECT_EQ(wrapped_hash, bare_hash) << where;
    EXPECT_EQ(all_counts(wrapped.last_stats()), all_counts(bare.last_stats()))
        << where;
    EXPECT_GT(wrapped.last_stats().rollout_memo_hits, 0) << where;
  }
}

}  // namespace
}  // namespace spear
