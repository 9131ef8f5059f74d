#include "mcts/transposition.h"

namespace spear {

std::uint64_t TranspositionCache::hash_key(const Key& key) {
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

const TranspositionCache::Priors* TranspositionCache::find(
    const Key& key) const {
  if (capacity_ == 0) return nullptr;
  const auto it = entries_.find(key);
  return it != entries_.end() ? &it->second : nullptr;
}

void TranspositionCache::insert(const Key& key, Priors priors) {
  if (capacity_ == 0) return;
  if (entries_.count(key) != 0) return;
  while (entries_.size() >= capacity_) {
    entries_.erase(order_.front());
    order_.pop_front();
  }
  order_.push_back(key);
  entries_.emplace(key, std::move(priors));
}

void TranspositionCache::clear() {
  entries_.clear();
  order_.clear();
}

SharedActionCache::SharedActionCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  std::size_t n = 1;
  while (n < shards) n <<= 1;
  shard_mask_ = n - 1;
  shards_ = std::make_unique<Shard[]>(n);
  // Ceil split so the shard capacities sum to >= capacity; capacity 0
  // disables every shard (find always misses, insert is a no-op).
  shard_capacity_ = capacity == 0 ? 0 : (capacity + n - 1) / n;
}

std::size_t SharedActionCache::size() const {
  std::size_t total = 0;
  for (std::uint64_t s = 0; s <= shard_mask_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].entries.size();
  }
  return total;
}

bool SharedActionCache::find(const Key& key, int* action) const {
  if (capacity_ == 0) return false;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return false;
  *action = it->second;
  return true;
}

void SharedActionCache::insert(const Key& key, int action) {
  if (capacity_ == 0) return;
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.entries.count(key) != 0) return;
  while (shard.entries.size() >= shard_capacity_) {
    shard.entries.erase(shard.order.front());
    shard.order.pop_front();
  }
  shard.order.push_back(key);
  shard.entries.emplace(key, action);
}

void SharedActionCache::clear() {
  for (std::uint64_t s = 0; s <= shard_mask_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].entries.clear();
    shards_[s].order.clear();
  }
}

}  // namespace spear
