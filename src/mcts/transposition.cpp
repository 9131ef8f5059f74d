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
StateCache<V>::StateCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  std::size_t n = 1;
  while (n < shards) n <<= 1;
  shard_mask_ = n - 1;
  shards_ = std::make_unique<Shard[]>(n);
  // Ceil split so the shard capacities sum to >= capacity; capacity 0
  // disables every shard.
  shard_capacity_ = capacity == 0 ? 0 : (capacity + n - 1) / n;
}

template <typename V>
std::size_t StateCache<V>::size() const {
  std::size_t total = 0;
  for (std::uint64_t s = 0; s <= shard_mask_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].entries.size();
  }
  return total;
}

template <typename V>
bool StateCache<V>::find(const Key& key, V* out) const {
  if (capacity_ == 0) return false;
  const Probe probe{&key, hash_state_key(key)};
  Shard& shard = shards_[probe.hash & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(probe);
  if (it == shard.entries.end()) return false;
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
  Shard& shard = shards_[hash & shard_mask_];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.find(Probe{&key, hash}) != shard.entries.end()) return;
  while (shard.entries.size() >= shard_capacity_) {
    const HashedKey* oldest = shard.order.front();
    shard.entries.erase(
        shard.entries.find(Probe{&oldest->key, oldest->hash}));
    shard.order.pop_front();
  }
  const auto inserted =
      shard.entries
          .emplace(HashedKey{std::forward<K>(key), hash}, std::move(value))
          .first;
  shard.order.push_back(&inserted->first);
}

template class StateCache<Priors>;
template class StateCache<int>;
template class StateCache<Time>;

}  // namespace spear
