// Checkpoint rotation and recovery (DESIGN.md §9).
//
// A checkpoint directory holds up to `keep` generations, and the directory
// itself is the only index:
//
//   <dir>/ckpt-000012.spearck
//   <dir>/ckpt-000013.spearck
//   ...
//
// save() writes the next generation atomically (tmp file + rename) and then
// prunes generations beyond `keep`.  load_latest() walks generations
// newest-first: a missing, truncated or CRC-corrupt file logs a warning,
// bumps the "ckpt.load_failures" counter and falls back to the previous
// generation — exactly the recovery contract the resume tests exercise.
// Every generation file that reached the directory is found, whatever
// instant a crash interrupted save() at.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"

namespace spear::ckpt {

struct CheckpointManagerOptions {
  std::string dir;
  /// Generations retained on disk; older ones are pruned after each save.
  std::size_t keep = 3;
};

/// A successfully loaded checkpoint plus where it came from.
struct LoadedCheckpoint {
  TrainerState state;
  std::uint64_t generation = 0;
  std::string path;
  /// Newer generations that were skipped because they failed verification.
  std::size_t corrupt_skipped = 0;
};

class CheckpointManager {
 public:
  /// Creates `options.dir` (and parents) if needed.  Throws CheckpointError
  /// when the directory cannot be created.
  explicit CheckpointManager(CheckpointManagerOptions options);

  const CheckpointManagerOptions& options() const { return options_; }

  /// Writes the next generation and returns its id.
  std::uint64_t save(const TrainerState& state);

  /// Newest generation that verifies, or nullopt when none does (or the
  /// directory holds no checkpoints at all).
  std::optional<LoadedCheckpoint> load_latest();

  /// Generations currently on disk, ascending (a directory scan).
  std::vector<std::uint64_t> generations() const;

  std::string path_for(std::uint64_t generation) const;

 private:
  CheckpointManagerOptions options_;
};

}  // namespace spear::ckpt
