// Plan-cache unit tests: signature key equality, statistics-fingerprint
// drift, sharded-LRU eviction, and drift invalidation.
#include "mcsort/service/plan_cache.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/service/signature.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

Table SmallTable(size_t n = 4096, uint64_t seed = 7) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(8, n), b(13, n), c(21, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(100));
    b.Set(r, rng.NextBounded(5000));
    c.Set(r, rng.NextBounded(1500000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  return table;
}

QueryExecutor::SortAttrs AttrsOf(const Table& table, const QuerySpec& spec) {
  QueryExecutor executor(table, {});
  return executor.ResolveSortAttrs(spec);
}

CachedPlan PlanFor(const Table& table,
                   const QueryExecutor::SortAttrs& attrs,
                   std::vector<Round> rounds) {
  CachedPlan plan;
  plan.plan = MassagePlan(std::move(rounds));
  plan.column_order.resize(attrs.names.size());
  for (size_t i = 0; i < attrs.names.size(); ++i) {
    plan.column_order[i] = static_cast<int>(i);
  }
  plan.fingerprints = FingerprintsOf(table, attrs);
  return plan;
}

// --------------------------------------------------------------------------
// Signatures
// --------------------------------------------------------------------------

TEST(SignatureTest, SameSpecSameKey) {
  const Table table = SmallTable();
  QuerySpec spec;
  spec.group_by = {"a", "b"};
  const auto attrs = AttrsOf(table, spec);
  const QuerySignature s1 =
      SignatureOf(table, spec, attrs, table.row_count(), 0.001);
  const QuerySignature s2 =
      SignatureOf(table, spec, attrs, table.row_count(), 0.001);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.hash, s2.hash);
  EXPECT_FALSE(s1.text.empty());
}

TEST(SignatureTest, DistinguishesAttributesOrdersFiltersAndRho) {
  const Table table = SmallTable();
  QuerySpec group_ab, group_ba, order_asc, order_desc, filtered;
  group_ab.group_by = {"a", "b"};
  group_ba.group_by = {"b", "a"};
  order_asc.order_by = {{"a", SortOrder::kAscending},
                        {"b", SortOrder::kAscending}};
  order_desc.order_by = {{"a", SortOrder::kAscending},
                         {"b", SortOrder::kDescending}};
  filtered = group_ab;
  filtered.filters = {{"c", CompareOp::kLess, 1000}};

  const uint64_t n = table.row_count();
  auto sig = [&](const QuerySpec& spec, double rho) {
    return SignatureOf(table, spec, AttrsOf(table, spec), n, rho).text;
  };
  EXPECT_NE(sig(group_ab, 0.001), sig(group_ba, 0.001));
  EXPECT_NE(sig(order_asc, 0.001), sig(order_desc, 0.001));
  // GROUP BY a,b is order-free; ORDER BY a,b is not — different keys.
  EXPECT_NE(sig(group_ab, 0.001), sig(order_asc, 0.001));
  EXPECT_NE(sig(group_ab, 0.001), sig(filtered, 0.001));
  EXPECT_NE(sig(group_ab, 0.001), sig(group_ab, 0.01));
}

TEST(SignatureTest, FingerprintDriftMeasuresRelativeChange) {
  StatsFingerprint cached;
  cached.row_count = 1000;
  cached.distinct_count = 100;
  cached.width = 13;
  StatsFingerprint current = cached;
  EXPECT_DOUBLE_EQ(FingerprintDrift(cached, current), 0.0);
  current.row_count = 1100;  // +10%
  EXPECT_NEAR(FingerprintDrift(cached, current), 0.1, 1e-9);
  current = cached;
  current.distinct_count = 300;  // 3x
  EXPECT_NEAR(FingerprintDrift(cached, current), 2.0, 1e-9);
  current = cached;
  current.width = 14;  // structurally incompatible
  EXPECT_DOUBLE_EQ(FingerprintDrift(cached, current), 1.0);
}

// --------------------------------------------------------------------------
// Cache behavior
// --------------------------------------------------------------------------

TEST(PlanCacheTest, MissInsertHit) {
  const Table table = SmallTable();
  QuerySpec spec;
  spec.group_by = {"a", "b"};
  const auto attrs = AttrsOf(table, spec);
  const auto signature =
      SignatureOf(table, spec, attrs, table.row_count(), 0.001);
  const auto current = FingerprintsOf(table, attrs);

  PlanCache cache;
  CachedPlan out;
  EXPECT_EQ(cache.Lookup(signature, current, &out),
            PlanCache::Outcome::kMiss);
  cache.Insert(signature, PlanFor(table, attrs, {{21, 32}}));
  EXPECT_EQ(cache.Lookup(signature, current, &out), PlanCache::Outcome::kHit);
  EXPECT_EQ(out.plan, MassagePlan({{21, 32}}));
  EXPECT_EQ(out.column_order, (std::vector<int>{0, 1}));

  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCacheTest, LruEvictsOldestWithinCapacity) {
  const Table table = SmallTable();
  PlanCacheOptions options;
  options.capacity = 2;
  options.shards = 1;  // single shard so the LRU order is global
  PlanCache cache(options);

  // Three distinct signatures from three specs.
  std::vector<QuerySpec> specs(3);
  specs[0].group_by = {"a", "b"};
  specs[1].group_by = {"a", "c"};
  specs[2].group_by = {"b", "c"};
  std::vector<QuerySignature> signatures;
  std::vector<std::vector<StatsFingerprint>> prints;
  for (const QuerySpec& spec : specs) {
    const auto attrs = AttrsOf(table, spec);
    signatures.push_back(
        SignatureOf(table, spec, attrs, table.row_count(), 0.001));
    prints.push_back(FingerprintsOf(table, attrs));
    cache.Insert(signatures.back(), PlanFor(table, attrs, {{21, 32}}));
  }
  // Capacity 2: the first signature was evicted, the newer two survive.
  CachedPlan out;
  EXPECT_EQ(cache.Lookup(signatures[0], prints[0], &out),
            PlanCache::Outcome::kMiss);
  EXPECT_EQ(cache.Lookup(signatures[1], prints[1], &out),
            PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.Lookup(signatures[2], prints[2], &out),
            PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.GetStats().evictions, 1u);

  // The verification lookups above refreshed recency: [2] was touched
  // last, so after re-inserting [0] the LRU victim is [1].
  const auto attrs0 = AttrsOf(table, specs[0]);
  cache.Insert(signatures[0], PlanFor(table, attrs0, {{21, 32}}));
  EXPECT_EQ(cache.Lookup(signatures[2], prints[2], &out),
            PlanCache::Outcome::kHit);
  EXPECT_EQ(cache.Lookup(signatures[1], prints[1], &out),
            PlanCache::Outcome::kMiss);
}

TEST(PlanCacheTest, DriftInvalidatesStaleEntry) {
  const Table table = SmallTable();
  QuerySpec spec;
  spec.group_by = {"a", "b"};
  const auto attrs = AttrsOf(table, spec);
  const auto signature =
      SignatureOf(table, spec, attrs, table.row_count(), 0.001);

  PlanCacheOptions options;
  options.drift_threshold = 0.2;
  PlanCache cache(options);
  cache.Insert(signature, PlanFor(table, attrs, {{21, 32}}));

  // Drift the row count by 50% — past the 20% threshold.
  std::vector<StatsFingerprint> drifted = FingerprintsOf(table, attrs);
  drifted[0].row_count = drifted[0].row_count * 3 / 2;
  CachedPlan out;
  EXPECT_EQ(cache.Lookup(signature, drifted, &out),
            PlanCache::Outcome::kStaleHit);
  // The drifted entry is erased and counted; the next lookup misses.
  EXPECT_EQ(cache.Lookup(signature, drifted, &out),
            PlanCache::Outcome::kMiss);
  const PlanCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.entries, 0u);

  // Drift below the threshold is tolerated.
  cache.Insert(signature, PlanFor(table, attrs, {{21, 32}}));
  std::vector<StatsFingerprint> slight = FingerprintsOf(table, attrs);
  slight[0].row_count = slight[0].row_count * 11 / 10;  // +10%
  EXPECT_EQ(cache.Lookup(signature, slight, &out), PlanCache::Outcome::kHit);
}

TEST(PlanCacheTest, ShardingKeepsAllEntriesReachable) {
  const Table table = SmallTable();
  PlanCacheOptions options;
  options.capacity = 64;
  options.shards = 8;
  PlanCache cache(options);

  // 32 distinct signatures via filter literals.
  std::vector<QuerySignature> signatures;
  QuerySpec base;
  base.group_by = {"a", "b"};
  const auto attrs = AttrsOf(table, base);
  const auto prints = FingerprintsOf(table, attrs);
  for (int i = 0; i < 32; ++i) {
    QuerySpec spec = base;
    spec.filters = {{"c", CompareOp::kLess, static_cast<Code>(1000 + i)}};
    signatures.push_back(
        SignatureOf(table, spec, attrs, table.row_count(), 0.001));
    cache.Insert(signatures.back(), PlanFor(table, attrs, {{21, 32}}));
  }
  CachedPlan out;
  for (const QuerySignature& signature : signatures) {
    EXPECT_EQ(cache.Lookup(signature, prints, &out),
              PlanCache::Outcome::kHit);
  }
  EXPECT_EQ(cache.GetStats().entries, 32u);
}

}  // namespace
}  // namespace mcsort
