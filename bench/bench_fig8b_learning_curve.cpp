// Fig. 8(b): the DRL learning curve — mean makespan over all training
// trajectories per epoch, with the Tetris and SJF makespans as reference
// lines (paper: 144 examples x 25 tasks, 20 rollouts/example, 7000 epochs;
// the curve decreases steadily and crosses Tetris/SJF around epoch 900).
//
// Scaled default: 12 examples x 15 tasks, 6 rollouts, 30 epochs after a
// short imitation warmup.  --paper restores the full scale (days on one
// core).
//
// Long runs are crash-safe (DESIGN.md §9): --checkpoint-dir rotates binary
// checkpoints every --checkpoint-every epochs, SIGINT/SIGTERM finishes the
// current epoch, flushes a checkpoint plus a run report and exits cleanly,
// and --resume continues an interrupted run with a byte-identical CSV.

#include <cstdio>
#include <vector>

#include "ckpt/manager.h"
#include "common/flags.h"
#include "common/supervisor.h"
#include "common/table.h"
#include "obs/report.h"
#include "rl/imitation.h"
#include "rl/reinforce.h"
#include "sched/sjf.h"
#include "sched/tetris.h"
#include "support.h"

int main(int argc, char** argv) {
  using namespace spear;
  using namespace spear::bench;

  Flags flags;
  const auto paper = flags.define_bool("paper", false, "paper-scale run");
  const auto examples = flags.define_int("examples", 12, "training DAGs");
  const auto tasks = flags.define_int("tasks", 15, "tasks per DAG");
  const auto epochs = flags.define_int("epochs", 30, "REINFORCE epochs");
  const auto rollouts = flags.define_int("rollouts", 6, "rollouts per example");
  const auto imitation_epochs =
      flags.define_int("imitation-epochs", 6, "warmup supervised epochs");
  const auto seed = flags.define_int("seed", 11, "seed");
  const auto csv_path =
      flags.define_string("csv", "fig8b_learning_curve.csv", "CSV output");
  const auto checkpoint_dir = flags.define_string(
      "checkpoint-dir", "", "rotate crash-safe checkpoints in this directory");
  const auto checkpoint_every = flags.define_int(
      "checkpoint-every", 1, "epochs between checkpoints (with a dir)");
  const auto checkpoint_keep =
      flags.define_int("checkpoint-keep", 3, "checkpoint generations kept");
  const auto resume = flags.define_bool(
      "resume", false, "resume from the latest checkpoint in --checkpoint-dir");
  const auto epoch_deadline_ms = flags.define_int(
      "epoch-deadline-ms", 0,
      "watchdog: warn + count when one epoch exceeds this (0 = off)");
  flags.parse(argc, argv);

  const std::size_t n_examples =
      *paper ? 144 : static_cast<std::size_t>(*examples);
  const std::size_t n_tasks = *paper ? 25 : static_cast<std::size_t>(*tasks);
  const std::size_t n_epochs =
      *paper ? 7000 : static_cast<std::size_t>(*epochs);
  const std::size_t n_rollouts =
      *paper ? 20 : static_cast<std::size_t>(*rollouts);

  const bool checkpointing = !checkpoint_dir->empty();
  const std::size_t ckpt_every = *checkpoint_every > 0
                                     ? static_cast<std::size_t>(*checkpoint_every)
                                     : 1;
  std::unique_ptr<ckpt::CheckpointManager> manager;
  if (checkpointing) {
    ckpt::CheckpointManagerOptions mo;
    mo.dir = *checkpoint_dir;
    mo.keep = static_cast<std::size_t>(*checkpoint_keep);
    manager = std::make_unique<ckpt::CheckpointManager>(std::move(mo));
    install_signal_handlers();
    // Metrics make ckpt.saves / watchdog counters visible in the exit
    // report.  Default (no --checkpoint-dir) runs keep obs fully disabled,
    // so their output stays byte-identical.
    obs::install_metrics(std::make_shared<obs::MetricsRegistry>());
  }
  Watchdog watchdog("fig8b");
  const auto epoch_deadline =
      std::chrono::milliseconds(*epoch_deadline_ms > 0 ? *epoch_deadline_ms
                                                       : 0);

  const ResourceVector capacity{1.0, 1.0};
  const auto dags = simulation_workload(n_examples, n_tasks,
                                        static_cast<std::uint64_t>(*seed));

  // Reference lines: the heuristics the curve must cross.
  auto tetris = make_tetris_scheduler();
  auto sjf = make_sjf_scheduler();
  std::vector<double> tetris_makespans, sjf_makespans;
  for (const auto& dag : dags) {
    tetris_makespans.push_back(
        static_cast<double>(validated_makespan(*tetris, dag, capacity)));
    sjf_makespans.push_back(
        static_cast<double>(validated_makespan(*sjf, dag, capacity)));
  }
  const double tetris_mean = mean(tetris_makespans);
  const double sjf_mean = mean(sjf_makespans);
  std::printf("reference mean makespans: Tetris %.2f, SJF %.2f\n",
              tetris_mean, sjf_mean);

  // §IV pipeline: imitation warmup, then REINFORCE with curve recording.
  Rng rng(static_cast<std::uint64_t>(*seed));
  Policy policy = Policy::make(FeaturizerOptions{}, capacity.dims(), rng);

  std::optional<ckpt::LoadedCheckpoint> loaded;
  if (checkpointing && *resume) {
    loaded = manager->load_latest();
    if (loaded) {
      std::printf("resuming from checkpoint generation %llu (%s, epoch %llu)\n",
                  static_cast<unsigned long long>(loaded->generation),
                  loaded->state.phase.c_str(),
                  static_cast<unsigned long long>(loaded->state.next_epoch));
    } else {
      std::printf("no usable checkpoint in %s; starting fresh\n",
                  checkpoint_dir->c_str());
    }
  }

  obs::RunReport report("fig8b_learning_curve");
  report.set("examples", static_cast<std::int64_t>(n_examples));
  report.set("tasks", static_cast<std::int64_t>(n_tasks));
  report.set("epochs", static_cast<std::int64_t>(n_epochs));
  report.set("rollouts", static_cast<std::int64_t>(n_rollouts));
  report.set("seed", *seed);
  report.set("resumed", static_cast<bool>(loaded));

  // Flushes the current trainer state + run report; the single exit path
  // for both graceful shutdown and normal completion.
  const auto flush_checkpoint = [&](const ckpt::TrainerState& state,
                                    bool stopped_early) {
    if (!checkpointing) return;
    manager->save(state);
    report.set("stopped_early", stopped_early);
    report.set("phase", state.phase);
    report.set("epochs_completed", static_cast<std::int64_t>(state.next_epoch));
    report.set("watchdog_overruns",
               static_cast<std::int64_t>(watchdog.overruns()));
    const std::string report_path = *checkpoint_dir + "/run_report.json";
    if (obs::metrics()) {
      const obs::MetricsSnapshot snapshot = obs::metrics()->snapshot();
      report.write(report_path, &snapshot);
    } else {
      report.write(report_path);
    }
    std::printf("wrote %s\n", report_path.c_str());
  };

  // Stage 1: imitation warmup — skipped entirely when resuming into
  // REINFORCE (the checkpoint already contains the warmed-up weights and
  // the Rng state that followed them).
  const bool skip_imitation =
      loaded && loaded->state.phase == ckpt::kPhaseReinforce;
  if (!skip_imitation) {
    ImitationOptions imitation;
    imitation.epochs = static_cast<std::size_t>(*imitation_epochs);
    auto demos = collect_cp_demonstrations(policy, dags, capacity,
                                           imitation.jump_on_process);
    ImitationTrainer warmup(policy, std::move(demos), imitation, rng);
    if (loaded && loaded->state.phase == ckpt::kPhaseImitation) {
      warmup.restore(loaded->state);
    }
    while (!warmup.done()) {
      if (stop_requested()) {
        std::printf("stop requested; checkpointing imitation at epoch %zu\n",
                    warmup.next_epoch());
        flush_checkpoint(warmup.checkpoint_state(), /*stopped_early=*/true);
        return 0;
      }
      WatchdogScope scope(
          watchdog, epoch_deadline,
          "imitation epoch " + std::to_string(warmup.next_epoch()));
      warmup.run_epoch();
      if (checkpointing && (warmup.next_epoch() % ckpt_every == 0)) {
        manager->save(warmup.checkpoint_state());
      }
    }
  }

  CsvWriter csv(*csv_path);
  csv.write("epoch", "mean_makespan", "tetris", "sjf");
  ReinforceOptions rl;
  rl.epochs = n_epochs;
  rl.rollouts_per_example = n_rollouts;
  ReinforceTrainer trainer(policy, dags, capacity, rl, rng);
  if (skip_imitation) trainer.restore(loaded->state);

  const auto emit_row = [&](std::size_t epoch, double makespan) {
    csv.write(static_cast<long long>(epoch), makespan, tetris_mean, sjf_mean);
    if (epoch % 5 == 0 || epoch + 1 == n_epochs) {
      std::printf("epoch %4zu  mean makespan %8.2f  (Tetris %.2f, SJF "
                  "%.2f)\n",
                  epoch, makespan, tetris_mean, sjf_mean);
    }
  };
  // Rows for epochs restored from the checkpoint, so a resumed run's CSV is
  // byte-identical to an uninterrupted one.
  for (std::size_t e = 0; e < trainer.result().epoch_mean_makespan.size();
       ++e) {
    emit_row(e, trainer.result().epoch_mean_makespan[e]);
  }

  while (!trainer.done()) {
    if (stop_requested()) {
      std::printf("stop requested; checkpointing REINFORCE at epoch %zu\n",
                  trainer.next_epoch());
      flush_checkpoint(trainer.checkpoint_state(), /*stopped_early=*/true);
      return 0;
    }
    const std::size_t epoch = trainer.next_epoch();
    WatchdogScope scope(watchdog, epoch_deadline,
                              "REINFORCE epoch " + std::to_string(epoch));
    const double makespan = trainer.run_epoch();
    emit_row(epoch, makespan);
    if (checkpointing && (trainer.next_epoch() % ckpt_every == 0 ||
                          trainer.done())) {
      manager->save(trainer.checkpoint_state());
    }
  }
  const auto result = trainer.finalize();
  flush_checkpoint(trainer.checkpoint_state(), /*stopped_early=*/false);

  const auto& curve = result.epoch_mean_makespan;
  Table table({"metric", "value"});
  table.add("first-epoch mean makespan", curve.front());
  table.add("last-epoch mean makespan", curve.back());
  table.add("Tetris reference", tetris_mean);
  table.add("SJF reference", sjf_mean);
  std::size_t crossed = curve.size();
  for (std::size_t e = 0; e < curve.size(); ++e) {
    if (curve[e] < std::min(tetris_mean, sjf_mean)) {
      crossed = e;
      break;
    }
  }
  table.add("epoch crossing both references",
            crossed < curve.size() ? std::to_string(crossed) : "not yet");
  std::printf("\nLearning curve summary (Fig. 8b — the curve should fall "
              "with epochs and eventually cross the heuristics):\n");
  table.print();
  std::printf("wrote %s\n", csv_path->c_str());
  return 0;
}
