#include "mcsort/service/plan_cache.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "mcsort/common/logging.h"

namespace mcsort {

PlanCache::PlanCache(const PlanCacheOptions& options) : options_(options) {
  options_.capacity = std::max<size_t>(options_.capacity, 1);
  const int shard_count = static_cast<int>(std::bit_ceil(
      static_cast<unsigned>(std::max(options_.shards, 1))));
  options_.shards = shard_count;
  per_shard_capacity_ = std::max<size_t>(
      (options_.capacity + static_cast<size_t>(shard_count) - 1) /
          static_cast<size_t>(shard_count),
      1);
  shards_.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const QuerySignature& signature) {
  // The low bits of FNV-1a are well mixed; shards is a power of two.
  return *shards_[signature.hash &
                  (static_cast<uint64_t>(options_.shards) - 1)];
}

PlanCache::Outcome PlanCache::Lookup(
    const QuerySignature& signature,
    const std::vector<StatsFingerprint>& current, CachedPlan* out) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(signature.text);
  if (it == shard.index.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kMiss;
  }
  CachedPlan& cached = it->second->second;
  // Revalidate: any sort column drifting past the threshold stales the
  // plan. A fingerprint-count mismatch means the signature collided across
  // incompatible shapes — treat as stale.
  bool fresh = cached.fingerprints.size() == current.size();
  if (fresh) {
    for (size_t c = 0; c < current.size(); ++c) {
      if (FingerprintDrift(cached.fingerprints[c], current[c]) >
          options_.drift_threshold) {
        fresh = false;
        break;
      }
    }
  }
  if (!fresh) {
    shard.lru.erase(it->second);
    shard.index.erase(it);
    stale_hits_.fetch_add(1, std::memory_order_relaxed);
    return Outcome::kStaleHit;
  }
  if (out != nullptr) *out = cached;
  // Move to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return Outcome::kHit;
}

void PlanCache::Insert(const QuerySignature& signature, CachedPlan plan) {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(signature.text);
  if (it != shard.index.end()) {
    it->second->second = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    insertions_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard.lru.emplace_front(signature.text, std::move(plan));
  shard.index.emplace(signature.text, shard.lru.begin());
  insertions_.fetch_add(1, std::memory_order_relaxed);
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

PlanCache::Stats PlanCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stale_hits = stale_hits_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.insertions = insertions_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.entries += shard->index.size();
  }
  return stats;
}

}  // namespace mcsort
