#include "core/spear.h"

#include "common/logging.h"
#include "dag/generator.h"
#include "rl/two_phase.h"
#include "trace/mapreduce.h"
#include "trace/trace.h"

namespace spear {

std::unique_ptr<MctsScheduler> make_spear_scheduler(
    std::shared_ptr<const Policy> policy, SpearOptions options) {
  MctsOptions mcts;
  mcts.initial_budget = options.initial_budget;
  mcts.min_budget = options.min_budget;
  mcts.exploration_scale = options.exploration_scale;
  mcts.seed = options.seed;
  mcts.num_threads = options.num_threads;
  mcts.time_budget_ms = options.time_budget_ms;
  mcts.faults = options.faults;
  mcts.retry = options.retry;
  mcts.search_mode = options.search_mode;
  mcts.leaf_tree_reuse = options.leaf_tree_reuse;
  mcts.name = "Spear";
  auto guide = std::make_shared<DrlDecisionPolicy>(std::move(policy),
                                                   /*greedy=*/true);
  return std::make_unique<MctsScheduler>(std::move(mcts), std::move(guide));
}

std::unique_ptr<MctsScheduler> make_mcts_scheduler(
    std::int64_t initial_budget, std::int64_t min_budget, std::uint64_t seed) {
  MctsOptions mcts;
  mcts.initial_budget = initial_budget;
  mcts.min_budget = min_budget;
  mcts.seed = seed;
  mcts.name = "MCTS";
  return std::make_unique<MctsScheduler>(std::move(mcts), nullptr);
}

Policy train_default_spear_policy(SpearTrainingOptions options) {
  Rng rng(options.seed);
  const ResourceVector capacity{1.0, 1.0};

  DagGeneratorOptions dag_options;
  dag_options.num_tasks = options.tasks_per_example;
  std::vector<Dag> examples =
      generate_random_dags(dag_options, options.num_examples, rng);
  // Half as many small shuffle-barrier jobs so the policy also sees the
  // trace workload's two-stage structure.
  TraceOptions trace_options;
  trace_options.num_jobs = std::max<std::size_t>(options.num_examples / 2, 1);
  trace_options.max_map_tasks = 15;
  trace_options.max_reduce_tasks = 15;
  trace_options.median_map_tasks = 10;
  trace_options.median_reduce_tasks = 10;
  trace_options.median_map_runtime = 20;
  trace_options.median_reduce_runtime = 12;
  trace_options.max_task_runtime = 60;
  Rng trace_rng = rng.split();
  for (const auto& job : generate_trace(trace_options, trace_rng)) {
    examples.push_back(mapreduce_to_dag(job));
  }

  Policy policy = Policy::make(FeaturizerOptions{}, capacity.dims(), rng);

  ImitationOptions imitation;
  imitation.epochs = options.imitation_epochs;
  ReinforceOptions reinforce;
  reinforce.epochs = options.reinforce_epochs;
  reinforce.rollouts_per_example = options.rollouts_per_example;
  TwoPhaseTrainer trainer(policy, examples, capacity, imitation, reinforce,
                          rng);
  while (!trainer.done()) trainer.run_epoch();

  const auto losses = trainer.imitation_result().epoch_losses;
  if (!losses.empty()) {
    SPEAR_LOG(Info) << "imitation pre-training: CE " << losses.front()
                    << " -> " << losses.back();
  }
  const auto rl_result = trainer.finalize();
  if (!rl_result.epoch_mean_makespan.empty()) {
    SPEAR_LOG(Info) << "REINFORCE: mean makespan "
                    << rl_result.epoch_mean_makespan.front() << " -> "
                    << rl_result.epoch_mean_makespan.back();
  }
  return policy;
}

}  // namespace spear
