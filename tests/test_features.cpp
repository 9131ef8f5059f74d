#include "dag/features.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dag/generator.h"
#include "support/builders.h"

namespace spear {
namespace {

using testing::make_chain;
using testing::make_diamond;
using testing::make_independent;

TEST(DagFeatures, ChainBLevels) {
  // t0(3) -> t1(5) -> t2(2): b-levels 10, 7, 2.
  Dag dag = make_chain({3, 5, 2});
  DagFeatures f(dag);
  EXPECT_EQ(f.b_level(0), 10);
  EXPECT_EQ(f.b_level(1), 7);
  EXPECT_EQ(f.b_level(2), 2);
  EXPECT_EQ(f.critical_path(), 10);
}

TEST(DagFeatures, IndependentTasksBLevelIsOwnRuntime) {
  Dag dag = make_independent(4, 6);
  DagFeatures f(dag);
  for (const auto& t : dag.tasks()) {
    EXPECT_EQ(f.b_level(t.id), 6);
    EXPECT_EQ(f.num_children(t.id), 0u);
    EXPECT_EQ(f.num_descendants(t.id), 0u);
  }
  EXPECT_EQ(f.critical_path(), 6);
}

TEST(DagFeatures, DiamondBLevelTakesLongerBranch) {
  // a(2) -> b(7), c(3); b,c -> d(1).  b-level(a) = 2 + 7 + 1 = 10.
  Dag dag = make_diamond(2, 7, 3, 1);
  DagFeatures f(dag);
  EXPECT_EQ(f.b_level(0), 10);
  EXPECT_EQ(f.b_level(1), 8);
  EXPECT_EQ(f.b_level(2), 4);
  EXPECT_EQ(f.b_level(3), 1);
  EXPECT_EQ(f.critical_path(), 10);
}

TEST(DagFeatures, ChildrenAndDescendants) {
  Dag dag = make_diamond(1, 1, 1, 1);
  DagFeatures f(dag);
  EXPECT_EQ(f.num_children(0), 2u);
  EXPECT_EQ(f.num_children(1), 1u);
  EXPECT_EQ(f.num_children(3), 0u);
  EXPECT_EQ(f.num_descendants(0), 3u);
  EXPECT_EQ(f.num_descendants(1), 1u);
  EXPECT_EQ(f.num_descendants(3), 0u);
}

TEST(DagFeatures, BLoadAccumulatesAlongBLevelPath) {
  // Chain with distinct demands: t0(2, {0.5,0.1}) -> t1(3, {0.2,0.4}).
  DagBuilder builder;
  const TaskId a = builder.add_task(2, ResourceVector{0.5, 0.1});
  const TaskId b = builder.add_task(3, ResourceVector{0.2, 0.4});
  builder.add_edge(a, b);
  Dag dag = std::move(builder).build();
  DagFeatures f(dag);
  EXPECT_DOUBLE_EQ(f.b_load(b, kCpu), 3 * 0.2);
  EXPECT_DOUBLE_EQ(f.b_load(b, kMem), 3 * 0.4);
  EXPECT_DOUBLE_EQ(f.b_load(a, kCpu), 2 * 0.5 + 3 * 0.2);
  EXPECT_DOUBLE_EQ(f.b_load(a, kMem), 2 * 0.1 + 3 * 0.4);
}

TEST(DagFeatures, BLoadFollowsDominantChild) {
  // Root with two children: long child (runtime 9) vs short (runtime 1).
  // b-load must accumulate along the *long* (b-level) path.
  DagBuilder builder;
  const TaskId root = builder.add_task(1, ResourceVector{0.1, 0.1});
  const TaskId heavy = builder.add_task(9, ResourceVector{0.9, 0.9});
  const TaskId light = builder.add_task(1, ResourceVector{0.2, 0.2});
  builder.add_edge(root, heavy);
  builder.add_edge(root, light);
  Dag dag = std::move(builder).build();
  DagFeatures f(dag);
  EXPECT_DOUBLE_EQ(f.b_load(root, kCpu), 1 * 0.1 + 9 * 0.9);
}

TEST(DagFeatures, SingleTask) {
  DagBuilder builder;
  builder.add_task(4, ResourceVector{0.3, 0.6});
  Dag dag = std::move(builder).build();
  DagFeatures f(dag);
  EXPECT_EQ(f.b_level(0), 4);
  EXPECT_DOUBLE_EQ(f.b_load(0, kCpu), 4 * 0.3);
  EXPECT_EQ(f.critical_path(), 4);
}

TEST(DagFeatures, TotalLoadMatchesDag) {
  Rng rng(7);
  DagGeneratorOptions options;
  options.num_tasks = 60;
  options.resource_dims = 3;
  const Dag dag = generate_random_dag(options, rng);
  const DagFeatures f(dag);
  for (std::size_t r = 0; r < dag.resource_dims(); ++r) {
    EXPECT_EQ(f.total_load(r), dag.total_load(r)) << "resource " << r;
  }
}

// Property: on random DAGs, b-level satisfies its recurrence and the
// critical path is the max b-level (attained at some source-reachable task).
class FeaturePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeaturePropertyTest, BLevelRecurrenceHolds) {
  Rng rng(GetParam());
  DagGeneratorOptions options;
  options.num_tasks = 80;
  Dag dag = generate_random_dag(options, rng);
  DagFeatures f(dag);

  Time max_b = 0;
  for (const auto& t : dag.tasks()) {
    Time best_child = 0;
    for (TaskId c : dag.children(t.id)) {
      best_child = std::max(best_child, f.b_level(c));
    }
    EXPECT_EQ(f.b_level(t.id), t.runtime + best_child);
    EXPECT_GE(f.b_level(t.id), t.runtime);
    max_b = std::max(max_b, f.b_level(t.id));
    // b-load is at least the task's own load and at most the whole DAG load.
    for (std::size_t r = 0; r < dag.resource_dims(); ++r) {
      EXPECT_GE(f.b_load(t.id, r),
                static_cast<double>(t.runtime) * t.demand[r] - 1e-12);
      EXPECT_LE(f.b_load(t.id, r), dag.total_load(r) + 1e-12);
    }
    // Descendant count at least direct children.
    EXPECT_GE(f.num_descendants(t.id), f.num_children(t.id));
  }
  EXPECT_EQ(f.critical_path(), max_b);
  EXPECT_LE(f.critical_path(), dag.total_runtime());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeaturePropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace spear
