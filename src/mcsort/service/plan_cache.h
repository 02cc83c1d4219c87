// PlanCache — memoizes ROGA massage plans across repeated query
// instances, so a served workload pays plan search once per distinct query
// shape instead of once per execution (the optimizer must never become the
// bottleneck; amortizing it to ~zero is even better).
//
// Sharded: the signature hash picks a shard, each shard is an
// independently locked LRU map, so concurrent sessions rarely contend.
// Entries carry the statistics fingerprints they were planned against;
// a lookup revalidates them and *invalidates* the entry once the table's
// statistics have drifted past `drift_threshold`; the caller then searches
// afresh, exactly as on a miss.
#ifndef MCSORT_SERVICE_PLAN_CACHE_H_
#define MCSORT_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcsort/massage/plan.h"
#include "mcsort/service/signature.h"

namespace mcsort {

// One memoized plan: everything needed to skip the search (plan + column
// order) plus the statistics snapshot it was derived from.
struct CachedPlan {
  MassagePlan plan;
  std::vector<int> column_order;
  std::vector<StatsFingerprint> fingerprints;
};

struct PlanCacheOptions {
  // Total entries across all shards (>= 1). LRU-evicted per shard.
  size_t capacity = 1024;
  // Shard count, rounded up to a power of two (>= 1).
  int shards = 8;
  // Relative statistics drift beyond which a cached plan is invalidated
  // (FingerprintDrift of any sort column). 20% cardinality movement
  // changes group-shape estimates enough to warrant a re-search.
  double drift_threshold = 0.2;
};

class PlanCache {
 public:
  enum class Outcome {
    kHit,          // fresh entry returned; skip the search
    kStaleHit,     // drifted entry erased; search as on a miss
    kMiss,         // nothing cached; cold search
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stale_hits = 0;   // invalidations triggered by drift
    uint64_t evictions = 0;    // LRU capacity evictions
    uint64_t insertions = 0;
    size_t entries = 0;        // current size across shards
    double hit_rate() const {
      const uint64_t lookups = hits + misses + stale_hits;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  explicit PlanCache(const PlanCacheOptions& options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Looks `signature` up and revalidates against `current` fingerprints.
  // kHit fills *out; kStaleHit erases the entry and leaves *out alone.
  Outcome Lookup(const QuerySignature& signature,
                 const std::vector<StatsFingerprint>& current,
                 CachedPlan* out);

  // Inserts (or replaces) the plan for `signature`, evicting the shard's
  // least-recently-used entry beyond capacity.
  void Insert(const QuerySignature& signature, CachedPlan plan);

  void Clear();

  Stats GetStats() const;
  const PlanCacheOptions& options() const { return options_; }

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used. The list owns the entries; the map
    // points into it.
    std::list<std::pair<std::string, CachedPlan>> lru;
    std::unordered_map<
        std::string,
        std::list<std::pair<std::string, CachedPlan>>::iterator>
        index;
  };

  Shard& ShardFor(const QuerySignature& signature);

  PlanCacheOptions options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stale_hits_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
};

}  // namespace mcsort

#endif  // MCSORT_SERVICE_PLAN_CACHE_H_
