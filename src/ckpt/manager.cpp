#include "ckpt/manager.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "common/logging.h"
#include "obs/obs.h"

namespace spear::ckpt {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kPrefix = "ckpt-";
constexpr std::string_view kExtension = ".spearck";

std::string generation_name(std::uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu",
                static_cast<unsigned long long>(gen));
  return std::string(kPrefix) + buf + std::string(kExtension);
}

}  // namespace

CheckpointManager::CheckpointManager(CheckpointManagerOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw CheckpointError("CheckpointManager: empty checkpoint directory");
  }
  if (options_.keep == 0) options_.keep = 1;
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw CheckpointError("CheckpointManager: cannot create " + options_.dir +
                          ": " + ec.message());
  }
}

std::string CheckpointManager::path_for(std::uint64_t generation) const {
  return (fs::path(options_.dir) / generation_name(generation)).string();
}

std::vector<std::uint64_t> CheckpointManager::generations() const {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kPrefix) || !name.ends_with(kExtension)) continue;
    const std::string digits = name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kExtension.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    gens.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(gens.begin(), gens.end());
  gens.erase(std::unique(gens.begin(), gens.end()), gens.end());
  return gens;
}

std::uint64_t CheckpointManager::save(const TrainerState& state) {
  std::vector<std::uint64_t> gens = generations();
  const std::uint64_t next = gens.empty() ? 1 : gens.back() + 1;

  write_checkpoint_file(path_for(next), state);
  gens.push_back(next);

  // Prune beyond `keep`, oldest first, only once the new generation is on
  // disk: a crash at any instant leaves at least the newest complete file.
  while (gens.size() > options_.keep) {
    const std::uint64_t victim = gens.front();
    gens.erase(gens.begin());
    std::error_code ec;
    fs::remove(path_for(victim), ec);  // best-effort; the next scan retries
  }

  if (obs::enabled()) {
    obs::count("ckpt.saves");
    obs::gauge("ckpt.last_generation", static_cast<double>(next));
  }
  SPEAR_LOG(Info) << "checkpoint: saved generation " << next << " ("
                  << state.phase << ", next epoch " << state.next_epoch
                  << ") to " << path_for(next);
  return next;
}

std::optional<LoadedCheckpoint> CheckpointManager::load_latest() {
  const std::vector<std::uint64_t> gens = generations();
  std::size_t corrupt = 0;
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = path_for(*it);
    try {
      LoadedCheckpoint loaded;
      loaded.state = read_checkpoint_file(path);
      loaded.generation = *it;
      loaded.path = path;
      loaded.corrupt_skipped = corrupt;
      if (obs::enabled()) obs::count("ckpt.loads");
      if (corrupt > 0) {
        SPEAR_LOG(Warn) << "checkpoint: recovered from generation " << *it
                        << " after skipping " << corrupt
                        << " corrupt newer generation(s)";
      }
      return loaded;
    } catch (const CheckpointError& e) {
      ++corrupt;
      SPEAR_LOG(Warn) << "checkpoint: generation " << *it
                      << " failed verification (" << e.what()
                      << "); falling back to the previous generation";
      if (obs::enabled()) obs::count("ckpt.load_failures");
    }
  }
  return std::nullopt;
}

}  // namespace spear::ckpt
