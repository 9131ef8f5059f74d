// The crash-safety contract of src/ckpt (DESIGN.md §9): binary container
// integrity (CRC footer, truncation detection), atomic writes, generation
// rotation with fallback recovery, the signal/watchdog supervision layer,
// and — the headline guarantee — bit-identical training resume, per trainer
// and through the two-phase pipeline's resume rule, including the
// fig8b-style learning-curve CSV byte-equality an interrupted bench run
// must reproduce.

#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/binary_io.h"
#include "ckpt/checkpoint.h"
#include "ckpt/crc32.h"
#include "ckpt/manager.h"
#include "common/csv.h"
#include "common/supervisor.h"
#include "dag/generator.h"
#include "rl/imitation.h"
#include "rl/reinforce.h"
#include "rl/two_phase.h"

namespace spear {
namespace {

namespace fs = std::filesystem;

ResourceVector cap() { return ResourceVector{1.0, 1.0}; }

Policy make_tiny_policy(Rng& rng) {
  FeaturizerOptions options;
  options.max_ready = 4;
  options.horizon = 6;
  return Policy::make(options, 2, rng, {16});
}

std::vector<Dag> tiny_training_set(std::size_t count, std::uint64_t seed) {
  DagGeneratorOptions options;
  options.num_tasks = 8;
  Rng rng(seed);
  return generate_random_dags(options, count, rng);
}

/// Fresh per-test scratch directory.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::path(::testing::TempDir()) / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }
  fs::path path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// CRC32

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32 check value for "123456789".
  const char* msg = "123456789";
  EXPECT_EQ(ckpt::crc32(msg, 9), 0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "spear checkpoint integrity footer";
  ckpt::Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), ckpt::crc32(data.data(), data.size()));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "payload bytes";
  const auto original = ckpt::crc32(data.data(), data.size());
  data[4] = static_cast<char>(data[4] ^ 0x10);
  EXPECT_NE(ckpt::crc32(data.data(), data.size()), original);
}

// ---------------------------------------------------------------------------
// Binary encoding

TEST(BinaryIo, RoundTripsPrimitives) {
  ckpt::BinaryWriter w;
  w.put_u8(7);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefULL);
  w.put_double(-1234.5678);
  w.put_string("phase");
  w.put_doubles({1.0, -2.0, 3.5});
  w.put_u64s({9, 8, 7});

  ckpt::BinaryReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 7);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.get_double(), -1234.5678);
  EXPECT_EQ(r.get_string(), "phase");
  EXPECT_EQ(r.get_doubles(), (std::vector<double>{1.0, -2.0, 3.5}));
  EXPECT_EQ(r.get_u64s(), (std::vector<std::uint64_t>{9, 8, 7}));
  EXPECT_TRUE(r.exhausted());
}

TEST(BinaryIo, DoublesAreBitExact) {
  // The binary format must round-trip every IEEE-754 value exactly —
  // including the ones the text format cannot represent.
  const std::vector<double> specials = {
      0.0,
      -0.0,
      5e-324,                                    // smallest denormal
      -5e-324,
      2.2250738585072014e-308,                   // smallest normal
      1.7976931348623157e308,                    // largest finite
      -1.7976931348623157e308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  ckpt::BinaryWriter w;
  w.put_doubles(specials);
  ckpt::BinaryReader r(w.bytes());
  const auto back = r.get_doubles();
  ASSERT_EQ(back.size(), specials.size());
  for (std::size_t i = 0; i < specials.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(specials[i]))
        << "value index " << i;
  }
}

TEST(BinaryIo, TruncatedReadThrows) {
  ckpt::BinaryWriter w;
  w.put_u64(42);
  ckpt::BinaryReader r(w.bytes().data(), 5);  // cut mid-u64
  EXPECT_THROW(r.get_u64(), ckpt::CheckpointError);
}

TEST(BinaryIo, AbsurdLengthPrefixThrows) {
  ckpt::BinaryWriter w;
  w.put_u64(std::numeric_limits<std::uint64_t>::max() / 2);  // huge count
  ckpt::BinaryReader r(w.bytes());
  EXPECT_THROW(r.get_doubles(), ckpt::CheckpointError);
}

// ---------------------------------------------------------------------------
// TrainerState container

ckpt::TrainerState sample_state(std::uint64_t seed) {
  Rng rng(seed);
  Mlp net({3, 4, 2}, rng);
  ckpt::TrainerState state;
  state.phase = ckpt::kPhaseReinforce;
  state.next_epoch = 17;
  state.episodes = 204;
  state.clipped_updates = 3;
  state.skipped_updates = 1;
  state.baseline = -41.25;
  state.rng = rng.state();
  state.curve = {48.0, 45.5, 44.0};
  state.permutation = {2, 0, 1};
  state.net = ckpt::snapshot_of(net);
  state.optimizer = ckpt::snapshot_of(net.make_gradients());
  return state;
}

TEST(Checkpoint, PayloadRoundTrip) {
  const auto state = sample_state(3);
  const auto bytes = ckpt::encode_trainer_state(state);
  const auto back = ckpt::decode_trainer_state(bytes.data(), bytes.size());
  EXPECT_EQ(back, state);
}

TEST(Checkpoint, FileRoundTrip) {
  ScratchDir dir("spear_ckpt_file");
  const std::string path = (dir.path() / "state.spearck").string();
  const auto state = sample_state(4);
  ckpt::write_checkpoint_file(path, state);
  EXPECT_EQ(ckpt::read_checkpoint_file(path), state);
  // Atomic publish leaves no tmp file behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(ckpt::read_checkpoint_file("/nonexistent/ck.spearck"),
               ckpt::CheckpointError);
}

TEST(Checkpoint, TruncatedFileThrows) {
  ScratchDir dir("spear_ckpt_trunc");
  const std::string path = (dir.path() / "state.spearck").string();
  ckpt::write_checkpoint_file(path, sample_state(5));
  const std::string bytes = read_bytes(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(ckpt::read_checkpoint_file(path), ckpt::CheckpointError);
}

TEST(Checkpoint, BitFlipFailsCrc) {
  ScratchDir dir("spear_ckpt_flip");
  const std::string path = (dir.path() / "state.spearck").string();
  ckpt::write_checkpoint_file(path, sample_state(6));
  std::string bytes = read_bytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  try {
    ckpt::read_checkpoint_file(path);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << "error should name the file";
  }
}

TEST(Checkpoint, BadMagicThrows) {
  ScratchDir dir("spear_ckpt_magic");
  const std::string path = (dir.path() / "state.spearck").string();
  ckpt::write_checkpoint_file(path, sample_state(7));
  std::string bytes = read_bytes(path);
  bytes[0] = 'X';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  EXPECT_THROW(ckpt::read_checkpoint_file(path), ckpt::CheckpointError);
}

TEST(Checkpoint, RestoreRejectsTopologyMismatch) {
  Rng rng(8);
  Mlp small({3, 4, 2}, rng);
  Mlp big({3, 8, 2}, rng);
  const auto snap = ckpt::snapshot_of(small);
  EXPECT_THROW(ckpt::restore_into(big, snap), ckpt::CheckpointError);
}

// ---------------------------------------------------------------------------
// Rotation manager

TEST(CheckpointManager, RotatesAndPrunesGenerations) {
  ScratchDir dir("spear_ckpt_rotate");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  options.keep = 3;
  ckpt::CheckpointManager manager(options);

  const auto state = sample_state(9);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(manager.save(state), i + 1u);

  EXPECT_EQ(manager.generations(),
            (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_FALSE(fs::exists(manager.path_for(1)));
  EXPECT_FALSE(fs::exists(manager.path_for(2)));
  EXPECT_TRUE(fs::exists(manager.path_for(5)));
}

TEST(CheckpointManager, LoadLatestReturnsNewest) {
  ScratchDir dir("spear_ckpt_latest");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  ckpt::CheckpointManager manager(options);

  auto state = sample_state(10);
  state.next_epoch = 1;
  manager.save(state);
  state.next_epoch = 2;
  manager.save(state);

  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->state.next_epoch, 2u);
  EXPECT_EQ(loaded->corrupt_skipped, 0u);
}

TEST(CheckpointManager, EmptyDirectoryLoadsNothing) {
  ScratchDir dir("spear_ckpt_empty");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  ckpt::CheckpointManager manager(options);
  EXPECT_FALSE(manager.load_latest().has_value());
}

TEST(CheckpointManager, TruncatedLatestFallsBackToPreviousGeneration) {
  ScratchDir dir("spear_ckpt_fallback");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  ckpt::CheckpointManager manager(options);

  auto state = sample_state(11);
  state.next_epoch = 1;
  manager.save(state);
  state.next_epoch = 2;
  manager.save(state);

  // Tear the newest generation mid-file, as a crash during a (non-atomic)
  // copy or a disk fault would.
  const std::string newest = manager.path_for(2);
  const std::string bytes = read_bytes(newest);
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 3);

  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
  EXPECT_EQ(loaded->state.next_epoch, 1u);
  EXPECT_EQ(loaded->corrupt_skipped, 1u);
}

TEST(CheckpointManager, BitFlippedLatestFallsBack) {
  ScratchDir dir("spear_ckpt_flipfall");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  ckpt::CheckpointManager manager(options);

  auto state = sample_state(12);
  state.next_epoch = 1;
  manager.save(state);
  state.next_epoch = 2;
  manager.save(state);

  const std::string newest = manager.path_for(2);
  std::string bytes = read_bytes(newest);
  bytes[bytes.size() - 20] ^= 0x40;
  std::ofstream(newest, std::ios::binary | std::ios::trunc) << bytes;

  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 1u);
}

TEST(CheckpointManager, FindsGenerationWrittenOutsideSave) {
  // A crash after a generation file lands but before save() returns must
  // not hide it: the directory is the index, so the file written here
  // without save() is the newest checkpoint.
  ScratchDir dir("spear_ckpt_unindexed");
  ckpt::CheckpointManagerOptions options;
  options.dir = dir.str();
  ckpt::CheckpointManager manager(options);
  auto state = sample_state(13);
  state.next_epoch = 1;
  EXPECT_EQ(manager.save(state), 1u);
  state.next_epoch = 2;
  ckpt::write_checkpoint_file(manager.path_for(2), state);

  EXPECT_EQ(manager.generations(), (std::vector<std::uint64_t>{1, 2}));
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->generation, 2u);
  EXPECT_EQ(loaded->state.next_epoch, 2u);
  // The next save continues the generation sequence after it.
  EXPECT_EQ(manager.save(state), 3u);
}

// ---------------------------------------------------------------------------
// Supervision: stop flag + watchdog

TEST(Supervisor, StopFlagLifecycle) {
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
  request_stop();
  EXPECT_TRUE(stop_requested());
  reset_stop_flag();
  EXPECT_FALSE(stop_requested());
}

TEST(Supervisor, SigtermSetsStopFlag) {
  reset_stop_flag();
  ASSERT_TRUE(install_signal_handlers());
  std::raise(SIGTERM);
  EXPECT_TRUE(stop_requested());
  reset_stop_flag();
}

TEST(Watchdog, ReportsOverrunOncePerArm) {
  Watchdog dog("test");
  dog.arm(std::chrono::milliseconds(5), "slow unit");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (dog.overruns() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(dog.overruns(), 1u);
  // Stays at one until re-armed.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(dog.overruns(), 1u);
}

TEST(Watchdog, DisarmBeforeDeadlineIsQuiet) {
  Watchdog dog("test");
  {
    WatchdogScope scope(dog, std::chrono::milliseconds(250), "fast");
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(dog.overruns(), 0u);
}

TEST(Watchdog, ZeroDeadlineScopeIsDisabled) {
  Watchdog dog("test");
  {
    WatchdogScope scope(dog, std::chrono::milliseconds(0), "off");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(dog.overruns(), 0u);
}

// ---------------------------------------------------------------------------
// Bit-identical training resume

std::vector<std::uint64_t> weight_bits(const Mlp& net) {
  std::vector<std::uint64_t> bits;
  for (const auto& layer : net.layers()) {
    for (double w : layer.weights.data()) {
      bits.push_back(std::bit_cast<std::uint64_t>(w));
    }
    for (double b : layer.bias) bits.push_back(std::bit_cast<std::uint64_t>(b));
  }
  return bits;
}

TEST(Resume, ReinforceKillAndResumeIsBitIdentical) {
  const auto dags = tiny_training_set(2, 20);
  ReinforceOptions options;
  options.epochs = 4;
  options.rollouts_per_example = 3;

  // Uninterrupted run.
  Rng rng_a(21);
  Policy policy_a = make_tiny_policy(rng_a);
  ReinforceTrainer full(policy_a, dags, cap(), options, rng_a);
  while (!full.done()) full.run_epoch();

  // "Killed" after epoch 2: checkpoint through the full binary container,
  // then restore into a brand-new process-alike (fresh policy, fresh rng).
  ScratchDir dir("spear_resume_reinforce");
  const std::string path = (dir.path() / "ck.spearck").string();
  {
    Rng rng_b(21);
    Policy policy_b = make_tiny_policy(rng_b);
    ReinforceTrainer half(policy_b, dags, cap(), options, rng_b);
    half.run_epoch();
    half.run_epoch();
    ckpt::write_checkpoint_file(path, half.checkpoint_state());
  }
  Rng rng_c(21);
  Policy policy_c = make_tiny_policy(rng_c);
  ReinforceTrainer resumed(policy_c, dags, cap(), options, rng_c);
  resumed.restore(ckpt::read_checkpoint_file(path));
  EXPECT_EQ(resumed.next_epoch(), 2u);
  while (!resumed.done()) resumed.run_epoch();

  // The learning curve and the final weights match bit for bit.
  const auto& curve_full = full.result().epoch_mean_makespan;
  const auto& curve_resumed = resumed.result().epoch_mean_makespan;
  ASSERT_EQ(curve_full.size(), curve_resumed.size());
  for (std::size_t e = 0; e < curve_full.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(curve_full[e]),
              std::bit_cast<std::uint64_t>(curve_resumed[e]))
        << "epoch " << e;
  }
  EXPECT_EQ(weight_bits(policy_a.net()), weight_bits(policy_c.net()));
  EXPECT_EQ(full.episodes(), resumed.episodes());
}

TEST(Resume, ImitationKillAndResumeIsBitIdentical) {
  const auto dags = tiny_training_set(2, 22);
  ImitationOptions options;
  options.epochs = 5;
  options.batch_size = 8;

  Rng rng_a(23);
  Policy policy_a = make_tiny_policy(rng_a);
  auto demos_a = collect_cp_demonstrations(policy_a, dags, cap());
  ImitationTrainer full(policy_a, std::move(demos_a), options, rng_a);
  while (!full.done()) full.run_epoch();

  ScratchDir dir("spear_resume_imitation");
  const std::string path = (dir.path() / "ck.spearck").string();
  {
    Rng rng_b(23);
    Policy policy_b = make_tiny_policy(rng_b);
    auto demos_b = collect_cp_demonstrations(policy_b, dags, cap());
    ImitationTrainer half(policy_b, std::move(demos_b), options, rng_b);
    half.run_epoch();
    half.run_epoch();
    half.run_epoch();
    ckpt::write_checkpoint_file(path, half.checkpoint_state());
  }
  Rng rng_c(23);
  Policy policy_c = make_tiny_policy(rng_c);
  auto demos_c = collect_cp_demonstrations(policy_c, dags, cap());
  ImitationTrainer resumed(policy_c, std::move(demos_c), options, rng_c);
  resumed.restore(ckpt::read_checkpoint_file(path));
  while (!resumed.done()) resumed.run_epoch();

  const auto& losses_full = full.result().epoch_losses;
  const auto& losses_resumed = resumed.result().epoch_losses;
  ASSERT_EQ(losses_full.size(), losses_resumed.size());
  for (std::size_t e = 0; e < losses_full.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(losses_full[e]),
              std::bit_cast<std::uint64_t>(losses_resumed[e]))
        << "epoch " << e;
  }
  EXPECT_EQ(weight_bits(policy_a.net()), weight_bits(policy_c.net()));
}

TEST(Resume, RestoreRejectsWrongPhase) {
  const auto dags = tiny_training_set(1, 24);
  Rng rng(25);
  Policy policy = make_tiny_policy(rng);
  ReinforceOptions options;
  options.epochs = 1;
  ReinforceTrainer trainer(policy, dags, cap(), options, rng);
  auto state = trainer.checkpoint_state();
  state.phase = ckpt::kPhaseImitation;
  state.permutation = {0};
  EXPECT_THROW(trainer.restore(state), ckpt::CheckpointError);
}

TEST(Resume, RecoversFromCorruptLatestGeneration) {
  // End-to-end recovery: checkpoints at epochs 1..3, the newest torn; the
  // run resumes from generation N-1 (epoch 2) and still reproduces the
  // uninterrupted curve bit for bit.
  const auto dags = tiny_training_set(2, 26);
  ReinforceOptions options;
  options.epochs = 4;
  options.rollouts_per_example = 2;

  Rng rng_a(27);
  Policy policy_a = make_tiny_policy(rng_a);
  ReinforceTrainer full(policy_a, dags, cap(), options, rng_a);
  while (!full.done()) full.run_epoch();

  ScratchDir dir("spear_resume_recover");
  ckpt::CheckpointManagerOptions mo;
  mo.dir = dir.str();
  ckpt::CheckpointManager manager(mo);
  {
    Rng rng_b(27);
    Policy policy_b = make_tiny_policy(rng_b);
    ReinforceTrainer run(policy_b, dags, cap(), options, rng_b);
    for (int e = 0; e < 3; ++e) {
      run.run_epoch();
      manager.save(run.checkpoint_state());
    }
  }
  const auto gens = manager.generations();
  ASSERT_EQ(gens.size(), 3u);
  const std::string newest = manager.path_for(gens.back());
  const std::string bytes = read_bytes(newest);
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state.next_epoch, 2u);

  Rng rng_c(27);
  Policy policy_c = make_tiny_policy(rng_c);
  ReinforceTrainer resumed(policy_c, dags, cap(), options, rng_c);
  resumed.restore(loaded->state);
  while (!resumed.done()) resumed.run_epoch();

  ASSERT_EQ(resumed.result().epoch_mean_makespan.size(),
            full.result().epoch_mean_makespan.size());
  for (std::size_t e = 0; e < options.epochs; ++e) {
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(full.result().epoch_mean_makespan[e]),
        std::bit_cast<std::uint64_t>(resumed.result().epoch_mean_makespan[e]))
        << "epoch " << e;
  }
  EXPECT_EQ(weight_bits(policy_a.net()), weight_bits(policy_c.net()));
}

TEST(Resume, LearningCurveCsvIsByteIdentical) {
  // The acceptance criterion of the fig8b bench wiring: the CSV a resumed
  // run writes (restored rows + continued rows) equals the uninterrupted
  // run's CSV byte for byte.
  const auto dags = tiny_training_set(2, 28);
  ReinforceOptions options;
  options.epochs = 4;
  options.rollouts_per_example = 2;
  const double tetris_ref = 25.0, sjf_ref = 26.5;

  const auto write_curve = [&](const std::string& path,
                               const ReinforceResult& result) {
    CsvWriter csv(path);
    csv.write("epoch", "mean_makespan", "tetris", "sjf");
    for (std::size_t e = 0; e < result.epoch_mean_makespan.size(); ++e) {
      csv.write(static_cast<long long>(e), result.epoch_mean_makespan[e],
                tetris_ref, sjf_ref);
    }
  };

  ScratchDir dir("spear_resume_csv");
  const std::string full_csv = (dir.path() / "full.csv").string();
  const std::string resumed_csv = (dir.path() / "resumed.csv").string();
  const std::string ck = (dir.path() / "ck.spearck").string();

  {
    Rng rng(29);
    Policy policy = make_tiny_policy(rng);
    ReinforceTrainer trainer(policy, dags, cap(), options, rng);
    while (!trainer.done()) trainer.run_epoch();
    write_curve(full_csv, trainer.result());
  }
  {
    Rng rng(29);
    Policy policy = make_tiny_policy(rng);
    ReinforceTrainer trainer(policy, dags, cap(), options, rng);
    trainer.run_epoch();
    trainer.run_epoch();
    ckpt::write_checkpoint_file(ck, trainer.checkpoint_state());
  }
  {
    Rng rng(29);
    Policy policy = make_tiny_policy(rng);
    ReinforceTrainer trainer(policy, dags, cap(), options, rng);
    trainer.restore(ckpt::read_checkpoint_file(ck));
    while (!trainer.done()) trainer.run_epoch();
    write_curve(resumed_csv, trainer.result());
  }
  const std::string full_bytes = read_bytes(full_csv);
  ASSERT_FALSE(full_bytes.empty());
  EXPECT_EQ(full_bytes, read_bytes(resumed_csv));
}

// ---------------------------------------------------------------------------
// The two-phase pipeline's resume rule: a run stopped after `stop_after`
// epochs (imitation epochs first, then REINFORCE) is saved through the
// rotation manager and resumed with load_latest() into a fresh
// TwoPhaseTrainer; weights, curves and the episode count must match an
// uninterrupted run bit for bit.

void expect_pipeline_resume_bit_identical(const std::string& dir_name,
                                          std::size_t stop_after,
                                          std::string_view stop_phase,
                                          std::size_t stop_epoch) {
  const auto dags = tiny_training_set(2, 30);
  ImitationOptions imitation;
  imitation.epochs = 3;
  imitation.batch_size = 8;
  ReinforceOptions reinforce;
  reinforce.epochs = 3;
  reinforce.rollouts_per_example = 2;

  Rng rng_a(31);
  Policy policy_a = make_tiny_policy(rng_a);
  TwoPhaseTrainer full(policy_a, dags, cap(), imitation, reinforce, rng_a);
  while (!full.done()) full.run_epoch();

  ScratchDir dir(dir_name);
  ckpt::CheckpointManagerOptions mo;
  mo.dir = dir.str();
  ckpt::CheckpointManager manager(mo);
  {
    Rng rng_b(31);
    Policy policy_b = make_tiny_policy(rng_b);
    TwoPhaseTrainer run(policy_b, dags, cap(), imitation, reinforce, rng_b);
    for (std::size_t e = 0; e < stop_after; ++e) {
      run.run_epoch();
      manager.save(run.checkpoint_state());
    }
  }
  const auto loaded = manager.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->state.phase, stop_phase);
  EXPECT_EQ(loaded->state.next_epoch, stop_epoch);

  Rng rng_c(31);
  Policy policy_c = make_tiny_policy(rng_c);
  TwoPhaseTrainer resumed(policy_c, dags, cap(), imitation, reinforce, rng_c);
  resumed.restore(loaded->state);
  EXPECT_EQ(resumed.phase(), stop_phase);
  EXPECT_EQ(resumed.next_epoch(), stop_epoch);
  while (!resumed.done()) resumed.run_epoch();

  const auto bits = [](const std::vector<double>& curve) {
    std::vector<std::uint64_t> out;
    for (double v : curve) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
  };
  EXPECT_EQ(weight_bits(policy_a.net()), weight_bits(policy_c.net()));
  EXPECT_EQ(bits(full.reinforce_result().epoch_mean_makespan),
            bits(resumed.reinforce_result().epoch_mean_makespan));
  EXPECT_EQ(full.checkpoint_state().episodes,
            resumed.checkpoint_state().episodes);
  if (stop_phase == ckpt::kPhaseImitation) {
    EXPECT_EQ(bits(full.imitation_result().epoch_losses),
              bits(resumed.imitation_result().epoch_losses));
  } else {
    // The resume rule skipped imitation: nothing was replayed.
    EXPECT_TRUE(resumed.imitation_result().epoch_losses.empty());
  }
}

TEST(Resume, PipelineStoppedInImitationIsBitIdentical) {
  expect_pipeline_resume_bit_identical("spear_pipeline_imitation", 2,
                                       ckpt::kPhaseImitation, 2);
}

TEST(Resume, PipelineStoppedAtThePhaseBoundaryIsBitIdentical) {
  // The last imitation epoch hands over to REINFORCE at once, so the
  // boundary checkpoint is REINFORCE's epoch 0.
  expect_pipeline_resume_bit_identical("spear_pipeline_boundary", 3,
                                       ckpt::kPhaseReinforce, 0);
}

TEST(Resume, PipelineStoppedInReinforceIsBitIdentical) {
  expect_pipeline_resume_bit_identical("spear_pipeline_reinforce", 5,
                                       ckpt::kPhaseReinforce, 2);
}

}  // namespace
}  // namespace spear
