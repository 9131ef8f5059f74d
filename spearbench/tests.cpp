// The benchmark's own tests: the timing decorator is transparent, the
// makespan lower bound is sound and tight, tail percentiles leave ten
// samples beyond them, metric names are well formed, and the open-loop due
// times are what they claim to be.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "core/spear.h"
#include "dag/generator.h"
#include "guide.h"
#include "harness.h"
#include "sched/critical_path.h"
#include "workloads.h"

namespace spearbench {
namespace {

const spear::ResourceVector kCapacity{1.0, 1.0};

std::shared_ptr<const spear::Policy> untrained_policy() {
  spear::Rng rng(6);
  return std::make_shared<const spear::Policy>(
      spear::Policy::make(spear::FeaturizerOptions{}, 2, rng));
}

std::vector<spear::Dag> small_suite(std::size_t count, std::size_t tasks,
                                    std::uint64_t seed) {
  spear::DagGeneratorOptions options;
  options.num_tasks = tasks;
  spear::Rng rng(seed);
  return spear::generate_random_dags(options, count, rng);
}

struct Transparency {
  bool leaf;
  int threads;
};

class DecoratorTransparency : public ::testing::TestWithParam<Transparency> {};

// The decorated guide must change nothing: identical schedules and search
// counts, so a traced run measures the same work as an untraced one.
TEST_P(DecoratorTransparency, SameScheduleAndStats) {
  const Transparency p = GetParam();
  const auto policy = untrained_policy();
  spear::SpearOptions spear_options;
  spear_options.initial_budget = 40;
  spear_options.min_budget = 10;
  spear_options.num_threads = p.threads;
  spear_options.search_mode =
      p.leaf ? spear::SearchMode::kLeaf : spear::SearchMode::kRoot;
  auto plain = spear::make_spear_scheduler(policy, spear_options);

  spear::MctsOptions mcts;
  mcts.initial_budget = spear_options.initial_budget;
  mcts.min_budget = spear_options.min_budget;
  mcts.seed = spear_options.seed;
  mcts.num_threads = spear_options.num_threads;
  mcts.search_mode = spear_options.search_mode;
  mcts.name = "Spear";
  SpanRecorder spans;
  auto tally = std::make_shared<GuideTally>();
  spear::MctsScheduler timed(
      mcts, std::make_shared<TimedGuide>(
                std::make_shared<spear::DrlDecisionPolicy>(policy, true),
                tally, &spans));

  const bool exact_forwards = !p.leaf || p.threads == 1;
  for (const spear::Dag& dag : small_suite(2, 20, 11)) {
    const spear::Schedule a = plain->schedule(dag, kCapacity);
    spear::EnvOptions env_options;
    env_options.max_ready = policy->featurizer().options().max_ready;
    const spear::Schedule b = timed.schedule_env(spear::SchedulingEnv(
        std::make_shared<spear::Dag>(dag), kCapacity, env_options));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.placements()[i].task, b.placements()[i].task);
      EXPECT_EQ(a.placements()[i].start, b.placements()[i].start);
    }
    const auto& sa = plain->last_stats();
    const auto& sb = timed.last_stats();
    EXPECT_EQ(sa.decisions, sb.decisions);
    EXPECT_EQ(sa.iterations, sb.iterations);
    EXPECT_EQ(sa.rollouts, sb.rollouts);
    EXPECT_EQ(sa.nodes_expanded, sb.nodes_expanded);
    EXPECT_EQ(sa.env_copies, sb.env_copies);
    EXPECT_EQ(sa.leaf_ticks, sb.leaf_ticks);
    EXPECT_EQ(sa.tt_hits, sb.tt_hits);
    EXPECT_EQ(sa.vloss_collisions, sb.vloss_collisions);
    if (exact_forwards) {
      EXPECT_EQ(sa.guide_forwards, sb.guide_forwards);
      EXPECT_EQ(sa.guide_forward_rows, sb.guide_forward_rows);
    }
  }
  EXPECT_GT(tally->calls.load(), 0);
  EXPECT_GE(tally->rows.load(), tally->calls.load());
  EXPECT_FALSE(spans.spans().empty());
}

INSTANTIATE_TEST_SUITE_P(
    SerialAndLeaf, DecoratorTransparency,
    ::testing::Values(Transparency{false, 1}, Transparency{true, 1},
                      Transparency{true, 4}),
    [](const auto& info) {
      return std::string(info.param.leaf ? "Leaf" : "Serial") +
             std::to_string(info.param.threads);
    });

TEST(LowerBound, NeverExceedsAMakespan) {
  auto cp = spear::make_critical_path_scheduler();
  for (const spear::Dag& dag : small_suite(20, 30, 3)) {
    const spear::Schedule s = cp->schedule(dag, kCapacity);
    ASSERT_FALSE(s.validate(dag, kCapacity).has_value());
    EXPECT_LE(makespan_lower_bound(dag, kCapacity),
              static_cast<double>(s.makespan(dag)));
  }
}

TEST(LowerBound, TightOnAChain) {
  spear::DagBuilder graph(2);
  spear::TaskId prev = spear::kInvalidTask;
  spear::Time total = 0;
  for (const spear::Time runtime : {3, 5, 2, 7}) {
    const spear::TaskId id =
        graph.add_task(runtime, spear::ResourceVector{0.5, 0.25});
    if (prev != spear::kInvalidTask) graph.add_edge(prev, id);
    prev = id;
    total += runtime;
  }
  const spear::Dag chain = std::move(graph).build();
  const spear::Schedule s =
      spear::make_critical_path_scheduler()->schedule(chain, kCapacity);
  EXPECT_EQ(s.makespan(chain), total);
  EXPECT_DOUBLE_EQ(makespan_lower_bound(chain, kCapacity),
                   static_cast<double>(total));
}

TEST(LowerBound, ResourceAreaDominatesWideDags) {
  // Four independent unit tasks each needing the whole CPU: the critical
  // path is 1 but the CPU area forces 4 slots.
  spear::DagBuilder graph(2);
  for (int i = 0; i < 4; ++i) graph.add_task(1, spear::ResourceVector{1.0, 0.1});
  const spear::Dag dag = std::move(graph).build();
  EXPECT_DOUBLE_EQ(makespan_lower_bound(dag, kCapacity), 4.0);
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  for (std::size_t n = 20; n < 2000; ++n) {
    const double p = tail_percentile(n);
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    EXPECT_GE(n - rank, 10u) << n;
  }
}

TEST(NearestRank, PicksTheRankedSample) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  EXPECT_EQ(nearest_rank(xs, 50.0), 50.0);
  EXPECT_EQ(nearest_rank(xs, 99.0), 99.0);
  EXPECT_EQ(nearest_rank(xs, 100.0), 100.0);
  xs.push_back(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(nearest_rank(xs, 100.0)));
  EXPECT_EQ(nearest_rank({}, 50.0), 0.0);
}

TEST(MetricNames, AllWellFormedAndUnique) {
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &layer_metrics()}) {
    for (const auto& [name, unit] : *list) {
      EXPECT_TRUE(valid_metric_name(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
      EXPECT_FALSE(unit.empty()) << name;
    }
  }
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("lat_p99_ms.hi"));
}

TEST(DueTimes, DeterministicIncreasingAndAtTheRate) {
  const double rate = 80.0, seconds = 50.0;
  const std::vector<double> a = poisson_due_times(rate, seconds, 7);
  EXPECT_EQ(a, poisson_due_times(rate, seconds, 7));
  EXPECT_NE(a, poisson_due_times(rate, seconds, 8));
  ASSERT_EQ(a.size(), 4000u);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), seconds);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Exponential gaps: mean 1/rate; the sample mean of ~4000 gaps is within
  // a few percent.
  EXPECT_NEAR((a.back() - a.front()) / (a.size() - 1), 1.0 / rate, 0.05 / rate);
  // Half the requests fall in each half of the window, give or take.
  const auto first_half = std::count_if(a.begin(), a.end(),
                                        [&](double t) { return t < seconds / 2; });
  EXPECT_NEAR(static_cast<double>(first_half), 2000.0, 160.0);
  EXPECT_EQ(poisson_due_times(30.0, 0.5, 1).size(), 15u);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> spans(4);
  spans[0] = {"parent", 0, 100, -1, -1, 0};
  spans[1] = {"child", 10, 30, 0, -1, 1};
  spans[2] = {"child", 20, 40, 0, -1, 2};  // overlaps the first child
  spans[3] = {"child", 90, 120, 0, -1, 1};  // clipped at the parent's end
  const auto totals = span_totals(spans);
  EXPECT_NEAR(totals.at("parent").self_ms, (100 - 30 - 10) / 1e6, 1e-12);
  EXPECT_EQ(totals.at("child").count, 3);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 3, 0, {{"setup_s", 0.5, "s"}, {"x", std::numeric_limits<double>::infinity(), "ms"}});
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(line.find("\"x\": {\"value\": null"), std::string::npos);
}

}  // namespace
}  // namespace spearbench
