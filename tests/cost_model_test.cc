// Tests for the cost model: structural properties (Eq. 3 hit-ratio
// behavior, FIP counting in T_massage, Lemma 2's Property 1 dominance) and
// agreement in *shape* with the paper's Sec. 3 examples.
#include "mcsort/cost/cost_model.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/cost/calibration.h"
#include "mcsort/cost/linear_solver.h"
#include "mcsort/plan/enumerate.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace {

// Builds stats for a synthetic column: n rows, `distinct` values uniform
// over the w-bit domain (the Sec. 3 experimental setup).
ColumnStats MakeStats(int width, uint64_t n, uint64_t distinct,
                      uint64_t seed) {
  Rng rng(seed);
  EncodedColumn col(width, n);
  const uint64_t domain = LowBitsMask(width) + 1;
  const uint64_t d = std::min(distinct, domain);
  // Random but fixed dictionary spread over the domain.
  std::vector<Code> dict(d);
  for (auto& v : dict) v = rng.NextBounded(domain);
  for (uint64_t i = 0; i < n; ++i) col.Set(i, dict[rng.NextBounded(d)]);
  return ColumnStats::Build(col);
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : model_(CostParams::Default()) {}

  CostModel model_;
};

TEST_F(CostModelTest, MassageCostCountsFips) {
  // Ex3-style instance: 17-bit + 33-bit columns.
  ColumnStats c1 = MakeStats(17, 1 << 16, 1 << 13, 1);
  ColumnStats c2 = MakeStats(33, 1 << 16, 1 << 13, 2);
  SortInstanceStats stats{1 << 16, {&c1, &c2}};

  // Identity plan: 2 FIPs; P<<1: 3 FIPs. T_massage must scale 2:3.
  const auto id = model_.Estimate(MassagePlan::WithMinimalBanks({17, 33}),
                                  stats);
  const auto shifted =
      model_.Estimate(MassagePlan::WithMinimalBanks({18, 32}), stats);
  EXPECT_DOUBLE_EQ(shifted.t_massage / id.t_massage, 1.5);
}

TEST_F(CostModelTest, LookupCostGrowsWithFootprint) {
  ColumnStats c1 = MakeStats(17, 1 << 14, 1 << 10, 3);
  ColumnStats c2 = MakeStats(32, 1 << 14, 1 << 10, 4);
  // Two-round plans over different widths: a wider second round has a
  // bigger footprint and must not be cheaper to look up.
  SortInstanceStats small{1 << 14, {&c1, &c2}};
  SortInstanceStats large{1 << 24, {&c1, &c2}};
  const MassagePlan plan = MassagePlan::WithMinimalBanks({17, 32});
  const auto e_small = model_.Estimate(plan, small);
  const auto e_large = model_.Estimate(plan, large);
  // Per-row lookup cost grows once the footprint exceeds the LLC.
  EXPECT_GT(e_large.rounds[1].t_lookup / (1 << 24),
            e_small.rounds[1].t_lookup / (1 << 14));
}

TEST_F(CostModelTest, Ex2StitchAllLosesWhenBankWidens) {
  // Paper Ex2: 15-bit + 31-bit; stitching to 46/[64] degrades vs
  // P0 = {15/[16], 31/[32]} (the paper's N = 2^24 setup).
  const uint64_t n = 1 << 24;
  ColumnStats c1 = MakeStats(15, 1 << 18, 1 << 13, 5);
  ColumnStats c2 = MakeStats(31, 1 << 18, 1 << 13, 6);
  SortInstanceStats stats{n, {&c1, &c2}};
  const double p0 = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({15, 31}), stats);
  const double stitched = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({46}), stats);
  EXPECT_LT(p0, stitched);
}

TEST_F(CostModelTest, Ex1StitchAllWins) {
  // Paper Ex1: 10-bit + 17-bit; the 27/[32] stitch saves a whole round
  // (sort + lookup + scan) at the same bank width.
  const uint64_t n = 1 << 22;
  ColumnStats c1 = MakeStats(10, 1 << 18, 1 << 10, 7);
  ColumnStats c2 = MakeStats(17, 1 << 18, 1 << 13, 8);
  SortInstanceStats stats{n, {&c1, &c2}};
  const double p0 = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({10, 17}), stats);
  const double stitched =
      model_.EstimateCycles(MassagePlan::WithMinimalBanks({27}), stats);
  EXPECT_LT(stitched, p0);
}

TEST_F(CostModelTest, Property1StitchingWithinBankNeverHurts) {
  // Lemma 2 / Property 1: stitching two adjacent rounds that fit within
  // the first round's bank yields a better plan (per the model).
  const uint64_t n = 1 << 20;
  ColumnStats c1 = MakeStats(6, 1 << 14, 40, 9);
  ColumnStats c2 = MakeStats(7, 1 << 14, 90, 10);
  ColumnStats c3 = MakeStats(9, 1 << 14, 300, 11);
  SortInstanceStats stats{n, {&c1, &c2, &c3}};
  // {6/[16], 7/[16], 9/[16]} vs {13/[16], 9/[16]}: 6 + 7 <= 16.
  const double three = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({6, 7, 9}), stats);
  const double two = model_.EstimateCycles(
      MassagePlan::WithMinimalBanks({13, 9}), stats);
  EXPECT_LT(two, three);
}

TEST_F(CostModelTest, CompositeDistinctCapsAtRowCountEffect) {
  ColumnStats c1 = MakeStats(20, 1 << 16, 1 << 12, 12);
  ColumnStats c2 = MakeStats(20, 1 << 16, 1 << 12, 13);
  SortInstanceStats stats{1 << 16, {&c1, &c2}};
  // Distinct prefixes grow monotonically with the prefix width.
  double prev = 0;
  for (int bits = 0; bits <= 40; bits += 5) {
    const double d = model_.CompositeDistinct(stats, bits);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST_F(CostModelTest, EstimateAccountsEveryRound) {
  ColumnStats c1 = MakeStats(12, 1 << 14, 1 << 10, 14);
  ColumnStats c2 = MakeStats(18, 1 << 14, 1 << 12, 15);
  SortInstanceStats stats{1 << 20, {&c1, &c2}};
  const auto est =
      model_.Estimate(MassagePlan::WithMinimalBanks({10, 10, 10}), stats);
  ASSERT_EQ(est.rounds.size(), 3u);
  EXPECT_EQ(est.rounds[0].t_lookup, 0.0);  // round 1: no lookup
  EXPECT_GT(est.rounds[1].t_lookup, 0.0);
  EXPECT_GT(est.rounds[2].t_lookup, 0.0);
  double total = est.t_massage;
  for (const auto& r : est.rounds) total += r.t_lookup + r.t_sort + r.t_scan;
  EXPECT_DOUBLE_EQ(total, est.total_cycles);
}

TEST_F(CostModelTest, GroupEstimatorTracksMeasuredGroups) {
  // The balls-into-bins group estimator behind N_group/N_sort (Fig. 4b's
  // quantities) must track reality for uniform data: build an instance,
  // predict groups after a prefix, and compare with exact counting.
  const uint64_t n = 1 << 16;
  Rng rng(77);
  EncodedColumn c1(14, n), c2(20, n);
  for (uint64_t i = 0; i < n; ++i) {
    c1.Set(i, rng.NextBounded(1 << 10) << 4);  // 2^10 distinct, spread
    c2.Set(i, rng.NextBounded(1 << 12) << 8);
  }
  ColumnStats s1 = ColumnStats::Build(c1);
  ColumnStats s2 = ColumnStats::Build(c2);
  SortInstanceStats stats{n, {&s1, &s2}};

  // Measured: distinct values of the full first column (prefix = 14).
  std::vector<Code> keys(n);
  for (uint64_t i = 0; i < n; ++i) keys[i] = c1.Get(i);
  std::sort(keys.begin(), keys.end());
  const double measured_groups = static_cast<double>(
      std::unique(keys.begin(), keys.end()) - keys.begin());

  const auto est = model_.Estimate(
      MassagePlan::WithMinimalBanks({14, 20}), stats);
  // rounds[0].n_group is the group count after round 1.
  EXPECT_NEAR(est.rounds[0].n_group, measured_groups,
              measured_groups * 0.05);
}

TEST_F(CostModelTest, SecondRoundSortsOnlyTiedRows) {
  // With a first column whose distinct count matches the row count,
  // nearly every group is a singleton and the estimated second-round sort
  // cost collapses.
  const uint64_t n = 1 << 14;
  ColumnStats wide = MakeStats(30, 1 << 14, 1 << 14, 31);   // ~unique per row
  ColumnStats narrow = MakeStats(8, 1 << 14, 16, 32);       // few values
  SortInstanceStats unique_first{n, {&wide, &narrow}};
  SortInstanceStats grouped_first{n, {&narrow, &wide}};
  const auto est_unique = model_.Estimate(
      MassagePlan::WithMinimalBanks({30, 8}), unique_first);
  const auto est_grouped = model_.Estimate(
      MassagePlan::WithMinimalBanks({8, 30}), grouped_first);
  // Behind a near-unique prefix, singleton groups exempt a large fraction
  // of rows from the second round (the Fig. 4b singleton effect); behind a
  // 16-value prefix every row remains tied and must be sorted.
  EXPECT_LT(est_unique.rounds[1].rows_to_sort, 0.85 * n);
  EXPECT_GT(est_grouped.rounds[1].rows_to_sort, 0.99 * n);
  // And the number of sort invocations explodes in the unique-first case
  // (many tiny groups) while staying at 16 in the grouped-first case.
  EXPECT_GT(est_unique.rounds[1].n_sort, 1000);
  EXPECT_NEAR(est_grouped.rounds[1].n_sort, 16, 3);
}

// Writes `text` to a per-process file in the test temp dir; returns its
// path. The caller removes it.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "mcsort_" +
                           std::to_string(getpid()) + "_" + name;
  std::ofstream(path) << text;
  return path;
}

void ExpectSameSortConstants(const CostParams& a, const CostParams& b) {
  EXPECT_EQ(a.cache_cycles, b.cache_cycles);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.massage_cycles, b.massage_cycles);
  EXPECT_EQ(a.scan_cycles, b.scan_cycles);
  for (int bank : {16, 32, 64}) {
    EXPECT_EQ(a.bank(bank).overhead, b.bank(bank).overhead) << bank;
    EXPECT_EQ(a.bank(bank).sort_network, b.bank(bank).sort_network) << bank;
    EXPECT_EQ(a.bank(bank).in_cache_merge, b.bank(bank).in_cache_merge)
        << bank;
    EXPECT_EQ(a.bank(bank).out_of_cache_merge,
              b.bank(bank).out_of_cache_merge)
        << bank;
  }
  EXPECT_EQ(a.counting.overhead, b.counting.overhead);
  EXPECT_EQ(a.counting.per_bucket, b.counting.per_bucket);
  EXPECT_EQ(a.counting.row_cache, b.counting.row_cache);
  EXPECT_EQ(a.counting.row_mem, b.counting.row_mem);
  EXPECT_EQ(a.radix.overhead, b.radix.overhead);
  EXPECT_EQ(a.radix.row_pass_cache, b.radix.row_pass_cache);
  EXPECT_EQ(a.radix.row_pass_mem, b.radix.row_pass_mem);
}

TEST(CalibrationFileTest, LegacyOvcLinesAreIgnored) {
  // Files written before the in-memory OVC merge kernel was removed carry
  // `ovcNN=` lines between the bank and counting lines. They must keep
  // loading, to the same constants as a file without those lines.
  const std::string head =
      "cache_cycles=4.5\nmem_cycles=31\nmassage_cycles=1.25\n"
      "scan_cycles=2.5\nbank16=301,2.5,44,2\nbank32=302,2.25,48,2.5\n"
      "bank64=353,6,110,4.75\n";
  const std::string ovc = "ovc16=300,6,4.5\novc32=300,6.5,5\novc64=350,9,6\n";
  const std::string counting = "counting=310,2.5,3.5,12.5\n";
  const std::string legacy_path =
      WriteTempFile("legacy_calib.txt", head + ovc + counting);
  const std::string current_path =
      WriteTempFile("current_calib.txt", head + counting);
  // Legacy lines count for nothing: without the counting term the file is
  // incomplete and must be recalibrated.
  const std::string incomplete_path =
      WriteTempFile("incomplete_calib.txt", head + ovc);

  CostParams legacy = CostParams::Default();
  CostParams current = CostParams::Default();
  CostParams incomplete = CostParams::Default();
  EXPECT_TRUE(LoadParams(legacy_path.c_str(), &legacy));
  EXPECT_TRUE(LoadParams(current_path.c_str(), &current));
  EXPECT_FALSE(LoadParams(incomplete_path.c_str(), &incomplete));
  ExpectSameSortConstants(legacy, current);
  EXPECT_EQ(current.bank(64).overhead, 353);
  EXPECT_EQ(current.counting.row_mem, 12.5);

  // SaveParams writes no OVC lines, and its output loads back unchanged.
  const std::string saved_path = WriteTempFile("saved_calib.txt", "");
  ASSERT_TRUE(SaveParams(current, saved_path.c_str()));
  std::ifstream saved(saved_path);
  const std::string text((std::istreambuf_iterator<char>(saved)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text.find("ovc"), std::string::npos) << text;
  CostParams reloaded = CostParams::Default();
  EXPECT_TRUE(LoadParams(saved_path.c_str(), &reloaded));
  ExpectSameSortConstants(current, reloaded);

  for (const std::string& path :
       {legacy_path, current_path, incomplete_path, saved_path}) {
    std::remove(path.c_str());
  }
}

TEST(CalibrationFileTest, PreRadixFilesLoadWithRadixDefaults) {
  // Files written before the radix kernel returned have no `radix=` line.
  // They stay complete — nothing forces a recalibration — and the radix
  // constants keep their defaults; a file with the line loads it.
  const std::string head =
      "cache_cycles=4.5\nmem_cycles=31\nmassage_cycles=1.25\n"
      "scan_cycles=2.5\nbank16=301,2.5,44,2\nbank32=302,2.25,48,2.5\n"
      "bank64=353,6,110,4.75\ncounting=310,2.5,3.5,12.5\n";
  const std::string old_path = WriteTempFile("pre_radix_calib.txt", head);
  const std::string new_path =
      WriteTempFile("radix_calib.txt", head + "radix=3000,4.5,9.5\n");
  const CostParams defaults = CostParams::Default();
  CostParams old_params = defaults;
  CostParams new_params = defaults;
  EXPECT_TRUE(LoadParams(old_path.c_str(), &old_params));
  EXPECT_TRUE(LoadParams(new_path.c_str(), &new_params));
  EXPECT_EQ(old_params.counting.row_mem, 12.5);
  EXPECT_EQ(old_params.radix.overhead, defaults.radix.overhead);
  EXPECT_EQ(old_params.radix.row_pass_cache, defaults.radix.row_pass_cache);
  EXPECT_EQ(old_params.radix.row_pass_mem, defaults.radix.row_pass_mem);
  EXPECT_EQ(new_params.radix.overhead, 3000);
  EXPECT_EQ(new_params.radix.row_pass_cache, 4.5);
  EXPECT_EQ(new_params.radix.row_pass_mem, 9.5);

  // SaveParams writes the radix line, and it loads back unchanged.
  const std::string saved_path = WriteTempFile("saved_radix_calib.txt", "");
  ASSERT_TRUE(SaveParams(new_params, saved_path.c_str()));
  CostParams reloaded = defaults;
  EXPECT_TRUE(LoadParams(saved_path.c_str(), &reloaded));
  ExpectSameSortConstants(new_params, reloaded);
  for (const std::string& path : {old_path, new_path, saved_path}) {
    std::remove(path.c_str());
  }
}

TEST(RadixCostTest, ChargesOnePassPerDigit) {
  // One uniform 24- or 25-bit column, one round in the 32-bit bank: 3 vs 4
  // digit passes over the same rows and residency, so past the fixed
  // per-invocation overhead the radix term grows by exactly 4/3.
  const CostParams params = CostParams::Default();
  const CostModel model(params);
  const uint64_t n = uint64_t{1} << 20;
  double sort_cycles[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const int width = 24 + i;
    const ColumnStats column = MakeStats(width, 1 << 16, 1 << 16, 7 + i);
    const SortInstanceStats stats{n, {&column}};
    const CostModel::PlanEstimate est =
        model.Estimate(MassagePlan({{width, 32}}), stats,
                       KernelBit(SortKernel::kSimdMerge) |
                           KernelBit(SortKernel::kRadix));
    ASSERT_EQ(est.rounds.size(), 1u);
    // A single million-row group: radix undercuts the merge term.
    EXPECT_EQ(est.rounds[0].kernel, SortKernel::kRadix) << width;
    sort_cycles[i] = est.rounds[0].t_sort - params.radix.overhead;
  }
  EXPECT_NEAR(sort_cycles[1] / sort_cycles[0], 4.0 / 3.0, 1e-9);
}

TEST(LinearSolverTest, RecoversExactSolution) {
  // 3 unknowns, 5 equations, consistent system.
  const std::vector<double> truth = {3.0, 0.5, 7.0};
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  Rng rng(99);
  for (int r = 0; r < 5; ++r) {
    std::vector<double> row = {rng.NextDouble() * 10, rng.NextDouble() * 10,
                               rng.NextDouble() * 10};
    b.push_back(row[0] * truth[0] + row[1] * truth[1] + row[2] * truth[2]);
    a.push_back(row);
  }
  const auto x = SolveLeastSquares(a, b);
  ASSERT_EQ(x.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], truth[i], 1e-6);
}

TEST(LinearSolverTest, LeastSquaresFitsNoisyOverdetermined) {
  const std::vector<double> truth = {100.0, 2.0};
  std::vector<std::vector<double>> a;
  std::vector<double> b;
  Rng rng(7);
  for (int r = 0; r < 50; ++r) {
    const double g = 1.0 + static_cast<double>(rng.NextBounded(1000));
    const double n = 1000.0 + static_cast<double>(rng.NextBounded(100000));
    const double noise = (rng.NextDouble() - 0.5) * 10.0;
    a.push_back({g, n});
    b.push_back(g * truth[0] + n * truth[1] + noise);
  }
  const auto x = SolveLeastSquares(a, b);
  EXPECT_NEAR(x[0], truth[0], 1.0);
  EXPECT_NEAR(x[1], truth[1], 0.01);
}

}  // namespace
}  // namespace mcsort
