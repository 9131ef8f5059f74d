// Ablation: the graph-derived policy features of §III-D (b-level,
// #children, per-resource b-load).  Two policies are trained identically —
// one with graph features, one without — and compared as standalone
// schedulers (greedy rollouts) and as Spear guidance.  The paper reports
// the graph features are what lift the DRL model past Tetris/SJF.

#include <cstdio>
#include <memory>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "rl/two_phase.h"
#include "sched/list_scheduler.h"
#include "sched/sjf.h"
#include "sched/tetris.h"
#include "support.h"

namespace {

// Train one policy variant through the §IV pipeline.
spear::Policy train_variant(bool graph_features, std::uint64_t seed,
                            const std::vector<spear::Dag>& dags,
                            const spear::ResourceVector& capacity,
                            std::size_t rl_epochs) {
  using namespace spear;
  Rng rng(seed);
  FeaturizerOptions featurizer;
  featurizer.graph_features = graph_features;
  Policy policy = Policy::make(featurizer, capacity.dims(), rng);
  ImitationOptions imitation;
  imitation.epochs = 8;
  ReinforceOptions rl;
  rl.epochs = rl_epochs;
  rl.rollouts_per_example = 4;
  TwoPhaseTrainer trainer(policy, dags, capacity, imitation, rl, rng);
  while (!trainer.done()) trainer.run_epoch();
  return policy;
}

// Mean makespan of greedy policy rollouts over the evaluation DAGs.
double mean_rollout_makespan(const spear::Policy& policy,
                             const std::vector<spear::Dag>& dags,
                             const spear::ResourceVector& capacity) {
  using namespace spear;
  std::vector<double> makespans;
  EnvOptions env_options;
  env_options.max_ready = policy.featurizer().options().max_ready;
  for (const auto& dag : dags) {
    SchedulingEnv env(std::make_shared<Dag>(dag), capacity, env_options);
    makespans.push_back(static_cast<double>(
        run_greedy(env, [&policy](const SchedulingEnv& state) {
          return policy.to_env_action(policy.greedy_output(state));
        })));
  }
  return mean(makespans);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto train_jobs = flags.define_int("train-jobs", 8, "training DAGs");
  const auto eval_jobs = flags.define_int("eval-jobs", 8, "evaluation DAGs");
  const auto tasks = flags.define_int("tasks", 15, "tasks per DAG");
  const auto rl_epochs = flags.define_int("rl-epochs", 15, "REINFORCE epochs");
  const auto seed = flags.define_int("seed", 15, "seed");
  const auto csv_path =
      flags.define_string("csv", "ablation_features.csv", "CSV output");
  flags.parse(argc, argv);

  const ResourceVector capacity{1.0, 1.0};
  const auto train_dags = simulation_workload(
      static_cast<std::size_t>(*train_jobs), static_cast<std::size_t>(*tasks),
      static_cast<std::uint64_t>(*seed));
  const auto eval_dags = simulation_workload(
      static_cast<std::size_t>(*eval_jobs), static_cast<std::size_t>(*tasks),
      static_cast<std::uint64_t>(*seed) + 1000);

  std::printf("training policy WITH graph features...\n");
  const Policy with_features =
      train_variant(true, static_cast<std::uint64_t>(*seed), train_dags,
                    capacity, static_cast<std::size_t>(*rl_epochs));
  std::printf("training policy WITHOUT graph features...\n");
  const Policy without_features =
      train_variant(false, static_cast<std::uint64_t>(*seed), train_dags,
                    capacity, static_cast<std::size_t>(*rl_epochs));

  const double makespan_with =
      mean_rollout_makespan(with_features, eval_dags, capacity);
  const double makespan_without =
      mean_rollout_makespan(without_features, eval_dags, capacity);

  // Heuristic references on the same evaluation set.
  auto tetris = make_tetris_scheduler();
  auto sjf = make_sjf_scheduler();
  std::vector<double> tetris_makespans, sjf_makespans;
  for (const auto& dag : eval_dags) {
    tetris_makespans.push_back(
        static_cast<double>(validated_makespan(*tetris, dag, capacity)));
    sjf_makespans.push_back(
        static_cast<double>(validated_makespan(*sjf, dag, capacity)));
  }

  Table table({"policy / heuristic", "mean makespan (greedy rollout)"});
  table.add("DRL with graph features", makespan_with);
  table.add("DRL without graph features", makespan_without);
  table.add("Tetris", mean(tetris_makespans));
  table.add("SJF", mean(sjf_makespans));
  std::printf("\nGraph-feature ablation (§III-D: the graph features should "
              "help; paper reports they are what surpass Tetris/SJF):\n");
  table.print();

  CsvWriter csv(*csv_path);
  csv.write("variant", "mean_makespan");
  csv.write("with_graph_features", makespan_with);
  csv.write("without_graph_features", makespan_without);
  csv.write("tetris", mean(tetris_makespans));
  csv.write("sjf", mean(sjf_makespans));
  return 0;
}
