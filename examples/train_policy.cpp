// Full §IV training pipeline with every knob exposed:
//
//   1. generate a training set of random DAGs;
//   2. supervised pre-training by imitating the critical-path heuristic;
//   3. REINFORCE with an averaged-rollout baseline;
//   4. save the model and the learning curve.
//
//   ./build/examples/train_policy --examples 24 --tasks 25 --imitation-epochs 10
//       --rl-epochs 50 --rollouts 8 --model policy.txt --curve curve.csv
//
// Paper-scale values (--examples 144 --tasks 25 --rl-epochs 7000
// --rollouts 20) reproduce Fig. 8(b) but need many hours on one core.
// For runs that long, --checkpoint-dir + --resume make the pipeline
// crash-safe (DESIGN.md §9): Ctrl-C finishes the current epoch, flushes a
// checkpoint and exits cleanly; restarting with --resume continues the
// exact weight/optimizer/Rng trajectory.

#include <cstdio>
#include <memory>
#include <optional>

#include "ckpt/manager.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/supervisor.h"
#include "core/spear.h"
#include "dag/generator.h"
#include "nn/serialize.h"
#include "rl/two_phase.h"

int main(int argc, char** argv) {
  using namespace spear;

  Flags flags;
  const auto examples = flags.define_int("examples", 24, "training DAGs");
  const auto tasks = flags.define_int("tasks", 25, "tasks per training DAG");
  const auto imitation_epochs =
      flags.define_int("imitation-epochs", 10, "supervised epochs");
  const auto rl_epochs = flags.define_int("rl-epochs", 40, "REINFORCE epochs");
  const auto rollouts =
      flags.define_int("rollouts", 8, "rollouts per example (paper: 20)");
  const auto seed = flags.define_int("seed", 7, "random seed");
  const auto model_path =
      flags.define_string("model", "spear_policy.txt", "model output path");
  const auto curve_path =
      flags.define_string("curve", "", "learning-curve CSV output path");
  const auto checkpoint_dir = flags.define_string(
      "checkpoint-dir", "", "rotate crash-safe checkpoints in this directory");
  const auto checkpoint_every = flags.define_int(
      "checkpoint-every", 1, "epochs between checkpoints (with a dir)");
  const auto resume = flags.define_bool(
      "resume", false, "resume from the latest checkpoint in --checkpoint-dir");
  flags.parse(argc, argv);

  const ResourceVector capacity{1.0, 1.0};
  Rng rng(static_cast<std::uint64_t>(*seed));

  DagGeneratorOptions dag_options;
  dag_options.num_tasks = static_cast<std::size_t>(*tasks);
  const auto dags = generate_random_dags(
      dag_options, static_cast<std::size_t>(*examples), rng);
  std::printf("training set: %zu DAGs x %lld tasks\n", dags.size(),
              static_cast<long long>(*tasks));

  Policy policy = Policy::make(FeaturizerOptions{}, capacity.dims(), rng);
  std::printf("policy network: %zu parameters\n",
              policy.net().num_parameters());

  const bool checkpointing = !checkpoint_dir->empty();
  const std::size_t ckpt_every =
      *checkpoint_every > 0 ? static_cast<std::size_t>(*checkpoint_every) : 1;
  std::unique_ptr<ckpt::CheckpointManager> manager;
  std::optional<ckpt::LoadedCheckpoint> loaded;
  if (checkpointing) {
    ckpt::CheckpointManagerOptions mo;
    mo.dir = *checkpoint_dir;
    manager = std::make_unique<ckpt::CheckpointManager>(std::move(mo));
    install_signal_handlers();
    if (*resume) {
      loaded = manager->load_latest();
      if (loaded) {
        std::printf("resuming from generation %llu (%s, epoch %llu)\n",
                    static_cast<unsigned long long>(loaded->generation),
                    loaded->state.phase.c_str(),
                    static_cast<unsigned long long>(loaded->state.next_epoch));
      }
    }
  }

  ImitationOptions imitation;
  imitation.epochs = static_cast<std::size_t>(*imitation_epochs);
  ReinforceOptions rl;
  rl.epochs = static_cast<std::size_t>(*rl_epochs);
  rl.rollouts_per_example = static_cast<std::size_t>(*rollouts);
  TwoPhaseTrainer trainer(policy, dags, capacity, imitation, rl, rng);
  if (loaded) trainer.restore(loaded->state);

  const auto& restored = trainer.reinforce_result().epoch_mean_makespan;
  for (std::size_t e = 0; e < restored.size(); ++e) {
    std::printf("REINFORCE epoch %4zu  mean makespan %.2f\n", e, restored[e]);
  }
  while (!trainer.done()) {
    if (checkpointing && stop_requested()) {
      const ckpt::TrainerState state = trainer.checkpoint_state();
      std::printf("stop requested; checkpointing %s at epoch %llu\n",
                  state.phase.c_str(),
                  static_cast<unsigned long long>(state.next_epoch));
      manager->save(state);
      return 0;
    }
    const bool imitating = trainer.phase() == ckpt::kPhaseImitation;
    const std::size_t e = trainer.next_epoch();
    const double value = trainer.run_epoch();
    std::printf(imitating ? "imitation epoch %3zu  CE loss %.4f\n"
                          : "REINFORCE epoch %4zu  mean makespan %.2f\n",
                e, value);
    if (checkpointing &&
        (trainer.next_epoch() % ckpt_every == 0 || trainer.done())) {
      manager->save(trainer.checkpoint_state());
    }
  }
  const auto rl_result = trainer.finalize();

  save_mlp(policy.net(), *model_path);
  std::printf("saved model to %s\n", model_path->c_str());

  if (!curve_path->empty()) {
    CsvWriter csv(*curve_path);
    csv.write("epoch", "mean_makespan");
    for (std::size_t e = 0; e < rl_result.epoch_mean_makespan.size(); ++e) {
      csv.write(static_cast<long long>(e), rl_result.epoch_mean_makespan[e]);
    }
    std::printf("saved learning curve to %s\n", curve_path->c_str());
  }
  return 0;
}
