#include "mcts/transposition.h"

namespace spear {

std::uint64_t hash_state_key(const StateKey& key) {
  // splitmix64 finalizer folded over the words; seeded with the length so
  // prefixes of longer keys do not collide trivially.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * (key.size() + 1);
  for (std::uint64_t word : key) {
    std::uint64_t z = h + word + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

const StateEntry* SharedActionCache::find(const StateKey& key) const {
  if (capacity_ == 0) return nullptr;
  const auto it = entries_.find(Probe{&key, hash_state_key(key)});
  return it == entries_.end() ? nullptr : &it->second;
}

void SharedActionCache::insert(StateKey key, StateEntry entry) {
  if (capacity_ == 0) return;
  const std::uint64_t hash = hash_state_key(key);
  if (entries_.find(Probe{&key, hash}) != entries_.end()) return;
  while (entries_.size() >= capacity_) {
    const HashedKey* oldest = order_.front();
    entries_.erase(entries_.find(Probe{&oldest->key, oldest->hash}));
    order_.pop_front();
  }
  const auto inserted =
      entries_.emplace(HashedKey{std::move(key), hash}, std::move(entry))
          .first;
  order_.push_back(&inserted->first);
}

}  // namespace spear
