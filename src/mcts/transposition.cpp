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

template <typename V>
bool StateCache<V>::find(const Key& key, V* out) const {
  if (capacity_ == 0) return false;
  const auto it = entries_.find(Probe{&key, hash_state_key(key)});
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

template <typename V>
void StateCache<V>::insert(const Key& key, V value) {
  insert_impl(key, std::move(value));
}

template <typename V>
void StateCache<V>::insert(Key&& key, V value) {
  insert_impl(std::move(key), std::move(value));
}

template <typename V>
template <typename K>
void StateCache<V>::insert_impl(K&& key, V value) {
  if (capacity_ == 0) return;
  const std::uint64_t hash = hash_state_key(key);
  if (entries_.find(Probe{&key, hash}) != entries_.end()) return;
  while (entries_.size() >= capacity_) {
    const HashedKey* oldest = order_.front();
    entries_.erase(entries_.find(Probe{&oldest->key, oldest->hash}));
    order_.pop_front();
  }
  const auto inserted =
      entries_.emplace(HashedKey{std::forward<K>(key), hash}, std::move(value))
          .first;
  order_.push_back(&inserted->first);
}

template class StateCache<Priors>;
template class StateCache<RolloutStep>;

}  // namespace spear
