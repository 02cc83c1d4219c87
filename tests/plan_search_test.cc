// Tests for plan enumeration (bank combos, Lemma 2 bound, shift family)
// and the ROGA / RRS search algorithms.
#include "mcsort/plan/roga.h"

#include <algorithm>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/plan/enumerate.h"
#include "mcsort/plan/rrs.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace {

ColumnStats MakeStats(int width, uint64_t n, uint64_t distinct,
                      uint64_t seed) {
  Rng rng(seed);
  EncodedColumn col(width, n);
  const uint64_t domain = LowBitsMask(width) + 1;
  const uint64_t d = std::min(distinct, domain);
  for (uint64_t i = 0; i < n; ++i) {
    Code v = rng.NextBounded(d);
    if (d < domain) v *= domain / d;  // spread over the domain
    col.Set(i, v);
  }
  return ColumnStats::Build(col);
}

TEST(EnumerateTest, MaxUsefulRoundsMatchesLemma2) {
  // Paper example: W = 59 -> floor(2*58/16) + 1 = 8.
  EXPECT_EQ(MaxUsefulRounds(59), 8);
  EXPECT_EQ(MaxUsefulRounds(17), 3);
  // Tiny widths are capped by W itself (>= 1 bit per round).
  EXPECT_EQ(MaxUsefulRounds(2), 1);
  EXPECT_EQ(MaxUsefulRounds(16), 2);
}

TEST(EnumerateTest, BankCombosForW59MatchPaper) {
  // Sec. 5: for W = 59, k = 2, the valid combos are {16,64}, {32,32},
  // {32,64}; the (64, *) combos are pruned by Property 1 and the
  // (16,16)/(16,32) combos lack capacity.
  auto combos = ValidBankCombos(59, 2);
  std::set<std::vector<int>> got(combos.begin(), combos.end());
  std::set<std::vector<int>> want = {{16, 64}, {32, 32}, {32, 64}};
  EXPECT_EQ(got, want);
  // k = 1: only a 64-bit bank can hold 59 bits.
  auto singles = ValidBankCombos(59, 1);
  ASSERT_EQ(singles.size(), 1u);
  EXPECT_EQ(singles[0], std::vector<int>({64}));
}

TEST(EnumerateTest, CombosAlwaysHaveCapacity) {
  for (int w : {5, 17, 33, 59, 90, 128}) {
    for (int k = 1; k <= std::min(MaxUsefulRounds(w), 6); ++k) {
      for (const auto& combo : ValidBankCombos(w, k)) {
        int capacity = 0;
        for (int b : combo) capacity += b;
        EXPECT_GE(capacity, w);
      }
    }
  }
}

TEST(EnumerateTest, FeasiblePlansAreValidCompositions) {
  const auto plans = EnumerateFeasiblePlans(19, 3);
  // Compositions of 19 into <= 3 parts: C(18,0)+C(18,1)+C(18,2) = 172.
  EXPECT_EQ(plans.size(), 1u + 18u + 153u);
  for (const auto& plan : plans) {
    EXPECT_TRUE(plan.IsValid());
    EXPECT_EQ(plan.total_width(), 19);
  }
}

TEST(EnumerateTest, ShiftPlanFamily) {
  // Ex3: (17, 33).
  EXPECT_EQ(ShiftPlan(17, 33, 0).ToString(), "{R1: 17/[32], R2: 33/[64]}");
  EXPECT_EQ(ShiftPlan(17, 33, 1).ToString(), "{R1: 18/[32], R2: 32/[32]}");
  EXPECT_EQ(ShiftPlan(17, 33, 33).ToString(), "{R1: 50/[64]}");
  EXPECT_EQ(ShiftPlan(17, 33, -17).ToString(), "{R1: 50/[64]}");
  EXPECT_EQ(ShiftPlan(17, 33, -1).ToString(), "{R1: 16/[16], R2: 34/[64]}");
}

class SearchTest : public ::testing::Test {
 protected:
  SearchTest() : model_(CostParams::Default()) {}

  CostModel model_;
};

TEST_F(SearchTest, RogaNeverWorseThanColumnAtATime) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    const int m = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<ColumnStats> stats_storage;
    for (int c = 0; c < m; ++c) {
      stats_storage.push_back(MakeStats(
          1 + static_cast<int>(rng.NextBounded(30)), 1 << 14,
          1 + rng.NextBounded(5000), seed * 100 + static_cast<uint64_t>(c)));
    }
    SortInstanceStats stats;
    stats.n = 1 << 20;
    for (const auto& s : stats_storage) stats.columns.push_back(&s);

    const double p0 =
        model_.EstimateCycles(MassagePlan::ColumnAtATime(stats.widths()),
                              stats);
    const SearchResult result = RogaSearch(model_, stats);
    EXPECT_LE(result.estimated_cycles, p0);
    EXPECT_TRUE(result.plan.IsValid());
    EXPECT_EQ(result.plan.total_width(), stats.total_width());
  }
}

TEST_F(SearchTest, RogaStitchesNarrowColumns) {
  // Two tiny columns (Ex1-like): stitching into one round saves a whole
  // round; ROGA must find a 1-round plan.
  ColumnStats c1 = MakeStats(10, 1 << 14, 1 << 10, 21);
  ColumnStats c2 = MakeStats(17, 1 << 14, 1 << 13, 22);
  SortInstanceStats stats{1 << 22, {&c1, &c2}};
  // Merge-only: with counting routable the optimum may legitimately be
  // a multi-round counting plan; this test pins the classic stitch shape.
  SearchOptions options;
  options.kernels = KernelBit(SortKernel::kSimdMerge);
  const SearchResult result = RogaSearch(model_, stats, options);
  EXPECT_EQ(result.plan.num_rounds(), 1u);
  EXPECT_EQ(result.plan.round(0).width, 27);
}

TEST_F(SearchTest, RogaRespectsOrderByColumnOrder) {
  ColumnStats c1 = MakeStats(20, 1 << 14, 1 << 13, 23);
  ColumnStats c2 = MakeStats(8, 1 << 14, 100, 24);
  SortInstanceStats stats{1 << 20, {&c1, &c2}};
  SearchOptions options;
  options.permute_columns = false;
  const SearchResult result = RogaSearch(model_, stats, options);
  EXPECT_EQ(result.column_order, (std::vector<int>{0, 1}));
}

TEST_F(SearchTest, GroupByPermutationCanBeatOrderBy) {
  // With permutation allowed the search space is a superset, so the best
  // estimate can only improve (or tie).
  ColumnStats c1 = MakeStats(25, 1 << 14, 1 << 13, 25);
  ColumnStats c2 = MakeStats(9, 1 << 14, 300, 26);
  ColumnStats c3 = MakeStats(13, 1 << 14, 5000, 27);
  SortInstanceStats stats{1 << 21, {&c1, &c2, &c3}};
  SearchOptions fixed;
  SearchOptions permuted;
  permuted.permute_columns = true;
  // Disable the stopwatch so the comparison is exact.
  fixed.rho = 0;
  permuted.rho = 0;
  const SearchResult fixed_result = RogaSearch(model_, stats, fixed);
  const SearchResult permuted_result = RogaSearch(model_, stats, permuted);
  EXPECT_LE(permuted_result.estimated_cycles, fixed_result.estimated_cycles);
}

TEST_F(SearchTest, TinyRhoStillReturnsValidPlan) {
  ColumnStats c1 = MakeStats(30, 1 << 14, 1 << 13, 28);
  ColumnStats c2 = MakeStats(30, 1 << 14, 1 << 13, 29);
  ColumnStats c3 = MakeStats(27, 1 << 14, 1 << 13, 30);
  SortInstanceStats stats{1 << 22, {&c1, &c2, &c3}};
  SearchOptions options;
  options.rho = 1e-9;  // essentially immediate timeout
  const SearchResult result = RogaSearch(model_, stats, options);
  EXPECT_TRUE(result.plan.IsValid());
  EXPECT_EQ(result.plan.total_width(), stats.total_width());
}

TEST_F(SearchTest, RrsFindsReasonablePlans) {
  ColumnStats c1 = MakeStats(10, 1 << 14, 1 << 10, 31);
  ColumnStats c2 = MakeStats(17, 1 << 14, 1 << 13, 32);
  SortInstanceStats stats{1 << 22, {&c1, &c2}};
  RrsOptions options;
  options.budget_seconds = 0.02;
  const SearchResult result = RrsSearch(model_, stats, options);
  EXPECT_TRUE(result.plan.IsValid());
  EXPECT_EQ(result.plan.total_width(), 27);
  // With a sane budget RRS should at least beat the baseline too.
  const double p0 = model_.EstimateCycles(
      MassagePlan::ColumnAtATime(stats.widths()), stats);
  EXPECT_LE(result.estimated_cycles, p0);
}

TEST_F(SearchTest, RogaBeatsOrMatchesRrsOnAverage) {
  // The headline claim of Sec. 6.1, as a coarse property: over several
  // random instances, ROGA's estimated plan cost sums to no more than
  // RRS's under the shared cost model.
  double roga_total = 0;
  double rrs_total = 0;
  std::vector<ColumnStats> storage;
  storage.reserve(100);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed + 500);
    const int m = 2 + static_cast<int>(rng.NextBounded(2));
    SortInstanceStats stats;
    stats.n = 1 << 21;
    const size_t base = storage.size();
    for (int c = 0; c < m; ++c) {
      storage.push_back(MakeStats(
          5 + static_cast<int>(rng.NextBounded(28)), 1 << 13,
          1 + rng.NextBounded(4000), seed * 10 + static_cast<uint64_t>(c)));
    }
    for (size_t i = base; i < storage.size(); ++i) {
      stats.columns.push_back(&storage[i]);
    }
    const SearchResult roga = RogaSearch(model_, stats);
    RrsOptions rrs_options;
    rrs_options.budget_seconds = std::max(roga.search_seconds, 1e-4);
    rrs_options.seed = seed;
    const SearchResult rrs = RrsSearch(model_, stats, rrs_options);
    roga_total += roga.estimated_cycles;
    rrs_total += rrs.estimated_cycles;
  }
  EXPECT_LE(roga_total, rrs_total * 1.05);
}

}  // namespace
}  // namespace mcsort
