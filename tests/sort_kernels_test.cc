// Tests for the per-round sort kernels (SIMD merge, counting sort, LSD
// radix) and the kernel-choice plan dimension.
//
// The load-bearing invariant is Lemma-1 equivalence: every kernel must
// produce the same sorted key sequence and the same group structure as a
// reference sort on every input — payload order within fully tied keys is
// the only freedom (the SIMD networks are not stable). That is checked per
// bank, per data pattern, serial and parallel, end-to-end through
// MultiColumnSorter with each kernel annotated on every round, and across
// the buffered and mmap snapshot load paths.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/exec_context.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/zipf.h"
#include "mcsort/engine/multi_column_sorter.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/massage/plan.h"
#include "mcsort/plan/roga.h"
#include "mcsort/service/signature.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"
#include "mcsort/sort/simd_sort.h"
#include "mcsort/storage/statistics.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

enum class Pattern {
  kRandom, kSorted, kReverse, kFewDistinct, kAllEqual, kSawtooth, kZipf,
  kKEqualsN,  // all keys distinct: K == N, the counting sort's worst case
};

template <typename K>
std::vector<K> MakeKeys(Pattern pattern, size_t n, int width, uint64_t seed) {
  const uint64_t mask = LowBitsMask(width);
  std::vector<K> keys(n);
  Rng rng(seed);
  switch (pattern) {
    case Pattern::kRandom:
      for (auto& k : keys) k = static_cast<K>(rng.Next() & mask);
      break;
    case Pattern::kSorted:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>(i & mask);
      break;
    case Pattern::kReverse:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>((n - i) & mask);
      break;
    case Pattern::kFewDistinct:
      for (auto& k : keys) k = static_cast<K>(rng.NextBounded(7) & mask);
      break;
    case Pattern::kAllEqual:
      for (auto& k : keys) k = static_cast<K>(uint64_t{12345} & mask);
      break;
    case Pattern::kSawtooth:
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>((i % 97) & mask);
      break;
    case Pattern::kZipf: {
      ZipfGenerator zipf(1000, 1.0);
      for (auto& k : keys) k = static_cast<K>(zipf.Next(rng) & mask);
      break;
    }
    case Pattern::kKEqualsN: {
      // A permutation of [0, n) (requires n <= 2^width): every key unique.
      for (size_t i = 0; i < n; ++i) keys[i] = static_cast<K>(i & mask);
      for (size_t i = n; i > 1; --i) {
        std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
      }
      break;
    }
  }
  return keys;
}

// Lemma-1 equivalence against a reference sort of the same input: the key
// sequences match exactly, and the oids are a permutation consistent with
// the keys (original[oid[i]] == keys[i]). Payload order within equal keys
// is free.
template <typename K>
void CheckEquivalent(const std::vector<K>& original,
                     const std::vector<K>& keys,
                     const std::vector<uint32_t>& oids) {
  const size_t n = original.size();
  ASSERT_EQ(keys.size(), n);
  std::vector<K> expected = original;
  std::sort(expected.begin(), expected.end());
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(keys[i], expected[i]) << "key sequence diverges at " << i;
    ASSERT_LT(oids[i], n);
    ASSERT_FALSE(seen[oids[i]]) << "oid duplicated: " << oids[i];
    seen[oids[i]] = true;
    ASSERT_EQ(original[oids[i]], keys[i]) << "payload mismatch at " << i;
  }
}

const Pattern kAllPatterns[] = {
    Pattern::kRandom,    Pattern::kSorted,   Pattern::kReverse,
    Pattern::kFewDistinct, Pattern::kAllEqual, Pattern::kSawtooth,
    Pattern::kZipf,      Pattern::kKEqualsN,
};

// Sizes straddling the interesting thresholds: insertion-sort cutoffs
// (merge 32, radix and counting 64), in-register runs, multiple merge
// passes.
const size_t kSizes[] = {0, 1, 2, 3, 33, 64, 65, 1000, 4096, 4097, 20000};

template <typename K>
void RunSerialKernels(int width, uint64_t seed) {
  SortScratch scratch;
  for (Pattern pattern : kAllPatterns) {
    for (size_t n : kSizes) {
      if (pattern == Pattern::kKEqualsN &&
          (width >= 63 ? false : n > (uint64_t{1} << width))) {
        continue;  // permutation pattern needs n <= 2^width
      }
      const auto original =
          MakeKeys<K>(pattern, n, width, seed + n + static_cast<int>(pattern));
      // SIMD merge.
      {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        SortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n, scratch);
        CheckEquivalent(original, keys, oids);
      }
      // Counting (only at feasible widths).
      if (CountingSortFeasible(width)) {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        CountingSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n,
                              width, scratch);
        CheckEquivalent(original, keys, oids);
      }
      // Radix (every width).
      {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        RadixSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n, width,
                           scratch);
        CheckEquivalent(original, keys, oids);
      }
    }
  }
}

TEST(SortKernelsSerialTest, Bank16AllPatterns) {
  for (int width : {1, 7, 13, 16}) RunSerialKernels<uint16_t>(width, 1000);
}

TEST(SortKernelsSerialTest, Bank32AllPatterns) {
  for (int width : {1, 11, 17, 20, 31, 32}) {
    RunSerialKernels<uint32_t>(width, 2000);
  }
}

TEST(SortKernelsSerialTest, Bank64AllPatterns) {
  for (int width : {1, 19, 20, 40, 64}) RunSerialKernels<uint64_t>(width, 3000);
}

// Equal keys keep their input payload order.
template <typename K>
void CheckStable(const std::vector<K>& original, const std::vector<K>& keys,
                 const std::vector<uint32_t>& oids) {
  for (size_t i = 1; i < keys.size(); ++i) {
    ASSERT_LE(keys[i - 1], keys[i]);
    if (keys[i - 1] == keys[i]) {
      ASSERT_LT(oids[i - 1], oids[i]) << "instability at " << i;
    }
    ASSERT_EQ(original[oids[i]], keys[i]);
  }
}

// Counting and radix sort must be stable: equal keys keep their input
// payload order. (Merge kernels are not required to be — the ScanGroups
// pass only needs group boundaries — but stability is what makes these
// kernels' grouped output deterministic, and it is what lets the parallel
// kernels reproduce the serial ones exactly, so pin it.)
TEST(SortKernelsSerialTest, CountingAndRadixSortsAreStable) {
  SortScratch scratch;
  for (size_t n : {size_t{100}, size_t{5000}}) {
    const auto original = MakeKeys<uint32_t>(Pattern::kFewDistinct, n, 8, 77);
    auto keys = original;
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    CountingSortPairs32(keys.data(), oids.data(), n, 8, scratch);
    CheckStable(original, keys, oids);
    // 20 bits of few distinct values: three digits, the top one constant.
    const auto wide = MakeKeys<uint32_t>(Pattern::kFewDistinct, n, 20, 78);
    keys = wide;
    std::iota(oids.begin(), oids.end(), 0);
    RadixSortPairs32(keys.data(), oids.data(), n, 20, scratch);
    CheckStable(wide, keys, oids);
  }
}

// --- Radix edge cases ------------------------------------------------------

template <typename K>
void RunRadixAllWidths(uint64_t seed) {
  SortScratch scratch;
  constexpr int kBankBits = static_cast<int>(sizeof(K) * 8);
  for (int width = 1; width <= kBankBits; ++width) {
    for (size_t n : {size_t{63}, size_t{64}, size_t{65}, size_t{300}}) {
      for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct}) {
        const auto original = MakeKeys<K>(pattern, n, width, seed + width + n);
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        RadixSortPairsBank(kBankBits, keys.data(), oids.data(), n, width,
                           scratch);
        CheckEquivalent(original, keys, oids);
      }
    }
  }
}

TEST(RadixSortTest, EveryWidthInEveryBank) {
  RunRadixAllWidths<uint16_t>(100);
  RunRadixAllWidths<uint32_t>(200);
  RunRadixAllWidths<uint64_t>(300);
}

TEST(RadixSortTest, ConstantDigitsAreSkippedNotMissorted) {
  // Only one digit of a 24-bit key varies, or two, or none: constant
  // digits skip their scatter (and are never the partition digit of a
  // large input), and an odd number of scatter passes must still land the
  // result in the caller's arrays. 5000 rows run plain LSD passes, 100000
  // the top-digit partition, serially and cooperatively.
  ThreadPool pool(4);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  SortScratch scratch;
  Rng rng(401);
  for (size_t n : {size_t{5000}, size_t{100000}}) {
    for (const uint32_t varying_mask :
         {0x0000FFu, 0x00FF00u, 0xFF0000u, 0xFF00FFu, 0x000000u}) {
      std::vector<uint32_t> original(n);
      for (auto& k : original) {
        k = 0x010001u | (static_cast<uint32_t>(rng.Next()) & varying_mask);
      }
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      RadixSortPairs32(keys.data(), oids.data(), n, 24, scratch);
      CheckEquivalent(original, keys, oids);
      CheckStable(original, keys, oids);
      auto parallel_keys = original;
      std::vector<uint32_t> parallel_oids(n);
      std::iota(parallel_oids.begin(), parallel_oids.end(), 0);
      ParallelRadixSortPairsBank(32, parallel_keys.data(),
                                 parallel_oids.data(), n, 24, pool,
                                 scratches, nullptr);
      EXPECT_EQ(parallel_keys, keys) << n << " rows, mask " << varying_mask;
      EXPECT_EQ(parallel_oids, oids) << n << " rows, mask " << varying_mask;
    }
  }
}

TEST(RadixSortTest, LargeInputsAroundThePartitionCutoff) {
  // From 2^15 rows the serial kernel partitions on the top non-constant
  // digit first, and recurses into buckets that are large themselves.
  SortScratch scratch;
  for (size_t n : {size_t{1} << 15, (size_t{1} << 15) - 1,
                   (size_t{1} << 15) + 1, size_t{300000}}) {
    for (Pattern pattern :
         {Pattern::kRandom, Pattern::kFewDistinct, Pattern::kZipf}) {
      for (int width : {16, 24, 40, 64}) {
        const auto original = MakeKeys<uint64_t>(pattern, n, width, n + width);
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        RadixSortPairs64(keys.data(), oids.data(), n, width, scratch);
        CheckEquivalent(original, keys, oids);
        CheckStable(original, keys, oids);
      }
    }
  }
}

TEST(RadixSortTest, KeysWithEveryBitSet) {
  // The all-ones key of each width sorts after everything else, and the
  // top digit of a 64-bit key (shift 56) is handled.
  SortScratch scratch;
  for (int width : {8, 16, 31, 32, 40, 63, 64}) {
    const uint64_t ones = LowBitsMask(width);
    const size_t n = 1000;
    std::vector<uint64_t> original(n);
    Rng rng(500 + width);
    for (size_t i = 0; i < n; ++i) {
      original[i] = i % 3 == 0 ? ones : (rng.Next() & ones);
    }
    auto keys = original;
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    RadixSortPairs64(keys.data(), oids.data(), n, width, scratch);
    CheckEquivalent(original, keys, oids);
    EXPECT_EQ(keys.back(), ones) << width;
  }
  std::vector<uint16_t> keys16(200, 0xFFFF);
  keys16[7] = 0;
  std::vector<uint32_t> oids16(200);
  std::iota(oids16.begin(), oids16.end(), 0);
  RadixSortPairs16(keys16.data(), oids16.data(), 200, 16, scratch);
  EXPECT_EQ(keys16.front(), 0);
  EXPECT_EQ(oids16.front(), 7u);
}

// The parallel radix kernel (and its serial fallback below
// kParallelSortMinRows) must give the serial kernel's exact, stable output
// in every bank.
template <typename K>
void CheckParallelRadixMatchesSerial(int width, ThreadPool& pool) {
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  SortScratch serial_scratch;
  constexpr int kBankBits = static_cast<int>(sizeof(K) * 8);
  for (size_t n : {kParallelSortMinRows - 1, kParallelSortMinRows,
                   kParallelSortMinRows + 1, size_t{100000}}) {
    for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct,
                            Pattern::kAllEqual}) {
      const auto original = MakeKeys<K>(pattern, n, width, n + width);
      auto want_keys = original;
      std::vector<uint32_t> want_oids(n);
      std::iota(want_oids.begin(), want_oids.end(), 0);
      RadixSortPairsBank(kBankBits, want_keys.data(), want_oids.data(), n,
                         width, serial_scratch);
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      ParallelRadixSortPairsBank(kBankBits, keys.data(), oids.data(), n,
                                 width, pool, scratches, nullptr);
      EXPECT_EQ(keys, want_keys) << n << " rows, " << width << " bits";
      EXPECT_EQ(oids, want_oids) << n << " rows, " << width << " bits";
    }
  }
}

TEST(RadixSortTest, ParallelMatchesSerialKernel) {
  ThreadPool pool(4);
  CheckParallelRadixMatchesSerial<uint16_t>(13, pool);
  CheckParallelRadixMatchesSerial<uint32_t>(27, pool);
  CheckParallelRadixMatchesSerial<uint64_t>(40, pool);
  CheckParallelRadixMatchesSerial<uint64_t>(64, pool);
}

template <typename K>
void RunParallelKernels(int width, int threads, uint64_t seed) {
  ThreadPool pool(threads);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct,
                          Pattern::kAllEqual, Pattern::kReverse}) {
    for (size_t n : {size_t{100}, size_t{5000}, size_t{100000}}) {
      const auto original = MakeKeys<K>(pattern, n, width, seed + n);
      {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        ParallelSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n,
                              pool, scratches, nullptr);
        CheckEquivalent(original, keys, oids);
      }
      if (CountingSortFeasible(width)) {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        ParallelCountingSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(),
                                      n, width, pool, scratches, nullptr);
        CheckEquivalent(original, keys, oids);
      }
      {
        auto keys = original;
        std::vector<uint32_t> oids(n);
        std::iota(oids.begin(), oids.end(), 0);
        ParallelRadixSortPairsBank(sizeof(K) * 8, keys.data(), oids.data(), n,
                                   width, pool, scratches, nullptr);
        CheckEquivalent(original, keys, oids);
      }
    }
  }
}

TEST(SortKernelsParallelTest, Bank16) { RunParallelKernels<uint16_t>(13, 4, 4); }
TEST(SortKernelsParallelTest, Bank32) { RunParallelKernels<uint32_t>(20, 4, 5); }
TEST(SortKernelsParallelTest, Bank64) { RunParallelKernels<uint64_t>(40, 3, 6); }

// The parallel counting kernel and its serial fallback (below 32 rows per
// bucket) must give the serial kernel's exact, stable output.
TEST(SortKernelsParallelTest, CountingMatchesSerialKernelAtEveryRatio) {
  ThreadPool pool(4);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  SortScratch serial_scratch;
  for (const auto& [n, width] : std::vector<std::pair<size_t, int>>{
           {100000, 8}, {210000, 14}, {300000, 12}, {70000, 16}}) {
    for (Pattern pattern : {Pattern::kRandom, Pattern::kFewDistinct}) {
      const auto original = MakeKeys<uint32_t>(pattern, n, width, n + width);
      auto want_keys = original;
      std::vector<uint32_t> want_oids(n);
      std::iota(want_oids.begin(), want_oids.end(), 0);
      CountingSortPairs32(want_keys.data(), want_oids.data(), n, width,
                          serial_scratch);
      auto keys = original;
      std::vector<uint32_t> oids(n);
      std::iota(oids.begin(), oids.end(), 0);
      ParallelCountingSortPairsBank(32, keys.data(), oids.data(), n, width,
                                    pool, scratches, nullptr);
      EXPECT_EQ(keys, want_keys) << n << " rows, " << width << " bits";
      EXPECT_EQ(oids, want_oids) << n << " rows, " << width << " bits";
    }
  }
}

// A pre-cancelled context must stop the parallel kernels without touching
// every element; the arrays are discarded, so only "returns, no crash,
// oids stay in range" is checked.
TEST(SortKernelsParallelTest, CancellationMidRoundUnwinds) {
  ThreadPool pool(4);
  std::vector<SortScratch> scratches(static_cast<size_t>(pool.num_threads()));
  const size_t n = 200000;
  CancellationSource source;
  ExecContext ctx;
  ctx.WithToken(source.token());
  source.Cancel();
  {
    auto keys = MakeKeys<uint32_t>(Pattern::kRandom, n, 32, 9);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelSortPairsBank(32, keys.data(), oids.data(), n, pool, scratches,
                          &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  {
    auto keys = MakeKeys<uint32_t>(Pattern::kRandom, n, 16, 10);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelCountingSortPairsBank(32, keys.data(), oids.data(), n, 16, pool,
                                  scratches, &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  {
    auto keys = MakeKeys<uint64_t>(Pattern::kRandom, n, 40, 12);
    std::vector<uint32_t> oids(n);
    std::iota(oids.begin(), oids.end(), 0);
    ParallelRadixSortPairsBank(64, keys.data(), oids.data(), n, 40, pool,
                               scratches, &ctx);
    for (uint32_t oid : oids) ASSERT_LT(oid, n);
  }
  // End-to-end: the executor reports the cancellation as a typed status,
  // whichever kernel the round runs.
  EncodedColumn c1(14, n);
  EncodedColumn c2(14, n);
  Rng rng(11);
  for (size_t r = 0; r < n; ++r) {
    c1.Set(r, rng.Next() & 0x3FFF);
    c2.Set(r, rng.Next() & 0x3FFF);
  }
  std::vector<MassageInput> inputs = {{&c1, SortOrder::kAscending},
                                      {&c2, SortOrder::kAscending}};
  MultiColumnSorter sorter(&pool);
  for (SortKernel kernel : {SortKernel::kCounting, SortKernel::kRadix}) {
    MassagePlan plan = MassagePlan::ColumnAtATime({14, 14});
    plan.mutable_round(1)->kernel = kernel;
    const auto result = sorter.Sort(inputs, plan, ctx);
    EXPECT_EQ(result.status.code, StatusCode::kCancelled)
        << SortKernelName(kernel);
  }
}

TEST(KernelMaskTest, ParseKernelMask) {
  const SortKernelMask fallback = kRoutableKernels;
  EXPECT_EQ(ParseKernelMask("merge", fallback),
            KernelBit(SortKernel::kSimdMerge));
  EXPECT_EQ(ParseKernelMask("simd", fallback),
            KernelBit(SortKernel::kSimdMerge));
  EXPECT_EQ(ParseKernelMask("counting", fallback),
            KernelBit(SortKernel::kCounting));
  EXPECT_EQ(ParseKernelMask("radix", fallback),
            KernelBit(SortKernel::kRadix));
  EXPECT_EQ(ParseKernelMask(" merge , counting ", fallback),
            KernelBit(SortKernel::kSimdMerge) |
                KernelBit(SortKernel::kCounting));
  EXPECT_EQ(ParseKernelMask("merge,counting,radix", fallback),
            kRoutableKernels);
  // Unknown / empty input keeps the fallback rather than masking everything.
  EXPECT_EQ(ParseKernelMask("", fallback), fallback);
  EXPECT_EQ(ParseKernelMask("bogus", fallback), fallback);
  // The in-memory OVC merge kernel was removed: its name must not silently
  // mean "all kernels" — the unknown token is named in one warning, and
  // the rest of the list still applies.
  testing::internal::CaptureStderr();
  EXPECT_EQ(ParseKernelMask("ovc", fallback), fallback);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("'ovc'"), std::string::npos) << warning;
  EXPECT_EQ(std::count(warning.begin(), warning.end(), '\n'), 1) << warning;
  testing::internal::CaptureStderr();
  EXPECT_EQ(ParseKernelMask("radix,ovc", fallback),
            KernelBit(SortKernel::kRadix));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("'ovc'"),
            std::string::npos);
  // Known spellings parse without a warning.
  testing::internal::CaptureStderr();
  ParseKernelMask("merge,counting,radix", fallback);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// --- End-to-end kernel equivalence through the executor -------------------

// Mirrors the executor's env forcing (see MultiColumnSorter): when
// MCSORT_KERNELS names exactly one kernel, it overrides every plan
// annotation — the CI kernel matrix runs this binary that way.
bool EnvForcedKernel(SortKernel* out) {
  const SortKernelMask mask = KernelMaskFromEnv(0);
  for (SortKernel kernel : kAllSortKernels) {
    if (mask == KernelBit(kernel)) {
      *out = kernel;
      return true;
    }
  }
  return false;
}

struct Instance {
  std::vector<EncodedColumn> columns;

  std::vector<MassageInput> Inputs() const {
    std::vector<MassageInput> inputs;
    for (const auto& c : columns) {
      inputs.push_back({&c, SortOrder::kAscending});
    }
    return inputs;
  }
  std::vector<int> Widths() const {
    std::vector<int> widths;
    for (const auto& c : columns) widths.push_back(c.width());
    return widths;
  }
  size_t rows() const { return columns.empty() ? 0 : columns[0].size(); }
};

Instance MakeInstance(const std::vector<int>& widths, size_t rows,
                      uint64_t seed, uint64_t distinct_cap) {
  Instance inst;
  Rng rng(seed);
  for (int width : widths) {
    EncodedColumn column(width, rows);
    const uint64_t mask = LowBitsMask(width);
    for (size_t r = 0; r < rows; ++r) {
      column.Set(r, (rng.Next() % distinct_cap) & mask);
    }
    inst.columns.push_back(std::move(column));
  }
  return inst;
}

// The tuple sequence (values at rank) and the group bounds must match
// across kernels; oid order within fully tied tuples is free (Lemma 1).
void CheckSameSortedOutput(const Instance& inst,
                           const MultiColumnSortResult& a,
                           const MultiColumnSortResult& b) {
  ASSERT_EQ(a.groups.bounds, b.groups.bounds);
  ASSERT_EQ(a.oids.size(), b.oids.size());
  for (size_t r = 0; r < a.oids.size(); ++r) {
    for (const auto& column : inst.columns) {
      ASSERT_EQ(column.Get(a.oids[r]), column.Get(b.oids[r])) << "row " << r;
    }
  }
}

TEST(KernelEndToEndTest, AllKernelsProduceIdenticalSorts) {
  // 9+14 bits: every round feasible for counting; sizes cover serial and
  // morsel-parallel paths.
  for (size_t rows : {size_t{500}, size_t{60000}}) {
    Instance inst = MakeInstance({9, 14}, rows, 21, 1 << 9);
    ThreadPool pool(4);
    MultiColumnSorter sorter(&pool);
    const MassagePlan base = MassagePlan::ColumnAtATime(inst.Widths());
    MultiColumnSortResult reference;
    bool have_reference = false;
    for (SortKernel kernel : kAllSortKernels) {
      MassagePlan plan = base;
      for (size_t j = 0; j < plan.num_rounds(); ++j) {
        plan.mutable_round(j)->kernel = kernel;
      }
      const auto result = sorter.Sort(inst.Inputs(), plan);
      ASSERT_TRUE(result.status.ok());
      SortKernel expected = kernel;
      EnvForcedKernel(&expected);  // CI matrix overrides the annotation
      for (const RoundProfile& round : result.rounds) {
        EXPECT_EQ(round.kernel, expected);
      }
      if (!have_reference) {
        reference = result;
        have_reference = true;
      } else {
        CheckSameSortedOutput(inst, reference, result);
      }
    }
  }
}

TEST(KernelEndToEndTest, RadixMatchesMergeOnWideStitchedRounds) {
  // Rounds past the counting cap, in the 32- and 64-bit banks: the first
  // round is one huge segment (the cooperative parallel radix path), later
  // rounds are mid and tiny segments.
  Instance inst = MakeInstance({10, 17, 40}, 60000, 41, uint64_t{1} << 40);
  ThreadPool pool(4);
  MultiColumnSorter sorter(&pool);
  for (const MassagePlan& base :
       {MassagePlan::ColumnAtATime(inst.Widths()),
        MassagePlan({{27, 32}, {40, 64}}), MassagePlan({{30, 32}, {37, 64}})}) {
    MultiColumnSortResult reference;
    for (SortKernel kernel : {SortKernel::kSimdMerge, SortKernel::kRadix}) {
      MassagePlan plan = base;
      for (size_t j = 0; j < plan.num_rounds(); ++j) {
        plan.mutable_round(j)->kernel = kernel;
      }
      const auto result = sorter.Sort(inst.Inputs(), plan);
      ASSERT_TRUE(result.status.ok());
      EXPECT_EQ(result.rounds[0].cooperative_sorts, 1u);
      if (kernel == SortKernel::kSimdMerge) {
        reference = result;
      } else {
        CheckSameSortedOutput(inst, reference, result);
      }
    }
  }
}

TEST(KernelEndToEndTest, ForcedCountingOnWideRoundDegradesToMerge) {
  // 27-bit stitched round exceeds kCountingMaxWidth: a forced counting
  // plan must degrade to merge, not crash.
  Instance inst = MakeInstance({10, 17}, 4000, 31, uint64_t{1} << 17);
  MultiColumnSorter sorter;
  MassagePlan plan({{27, 32}});
  plan.mutable_round(0)->kernel = SortKernel::kCounting;
  const auto result = sorter.Sort(inst.Inputs(), plan);
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.rounds.size(), 1u);
  SortKernel expected = SortKernel::kCounting;
  EnvForcedKernel(&expected);
  if (expected == SortKernel::kCounting) expected = SortKernel::kSimdMerge;
  EXPECT_EQ(result.rounds[0].kernel, expected);
}

// --- Snapshot load paths --------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mcsort_kernels_test_XXXXXX";
    path_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(KernelSnapshotTest, KernelsAgreeAcrossBufferedAndMmapLoads) {
  // Sort the same saved table through every kernel under both load paths;
  // all six results must be Lemma-1 identical.
  const size_t rows = 20000;
  Instance inst = MakeInstance({12, 8}, rows, 51, 1 << 8);
  Table table;
  table.AddColumn("a", std::move(inst.columns[0]));
  table.AddColumn("b", std::move(inst.columns[1]));
  TempDir dir;
  const std::string snap = dir.path() + "/t";
  ASSERT_TRUE(table.SaveSnapshot(snap).ok());

  // Values by input row, from the original table (both load paths must
  // reproduce them bit-exactly; io_test covers that separately).
  std::vector<std::vector<Code>> values(2, std::vector<Code>(rows));
  for (size_t r = 0; r < rows; ++r) {
    values[0][r] = table.column("a").Get(r);
    values[1][r] = table.column("b").Get(r);
  }

  MultiColumnSortResult reference;
  bool have_reference = false;
  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kBuffered, SnapshotLoadMode::kMmap}) {
    Table loaded;
    SnapshotLoadOptions options;
    options.mode = mode;
    ASSERT_TRUE(Table::LoadSnapshot(snap, options, &loaded).ok());
    std::vector<MassageInput> inputs = {
        {&loaded.column("a"), SortOrder::kAscending},
        {&loaded.column("b"), SortOrder::kAscending}};
    for (SortKernel kernel : kAllSortKernels) {
      MultiColumnSorter sorter;
      MassagePlan plan = MassagePlan::ColumnAtATime({12, 8});
      for (size_t j = 0; j < plan.num_rounds(); ++j) {
        plan.mutable_round(j)->kernel = kernel;
      }
      const auto result = sorter.Sort(inputs, plan);
      ASSERT_TRUE(result.status.ok());
      if (!have_reference) {
        reference = result;
        have_reference = true;
      } else {
        ASSERT_EQ(result.groups.bounds, reference.groups.bounds);
        for (size_t r = 0; r < rows; ++r) {
          for (const auto& column_values : values) {
            ASSERT_EQ(column_values[result.oids[r]],
                      column_values[reference.oids[r]])
                << "row " << r;
          }
        }
      }
    }
  }
}

// --- Planner integration --------------------------------------------------

TEST(KernelRoutingTest, RogaRoutesLowCardinalityRoundsToCounting) {
  // A narrow low-cardinality instance at large N: counting's O(N + K)
  // round must beat the merge sort's N log N in the model, so the chosen
  // plan routes at least one round to the counting kernel — with no env
  // forcing involved.
  ColumnStats stats_col;
  {
    EncodedColumn column(8, 1 << 14);
    Rng rng(61);
    for (size_t r = 0; r < column.size(); ++r) {
      column.Set(r, rng.Next() & 0xFF);
    }
    stats_col = ColumnStats::Build(column);
  }
  SortInstanceStats stats;
  stats.n = 1 << 24;
  stats.columns = {&stats_col};
  const CostModel model(CostParams::Default());
  SearchOptions options;
  options.kernels = kRoutableKernels;
  const SearchResult result = RogaSearch(model, stats, options);
  ASSERT_TRUE(result.plan.IsValid());
  bool routed_counting = false;
  for (const Round& round : result.plan.rounds()) {
    if (round.kernel == SortKernel::kCounting) routed_counting = true;
  }
  EXPECT_TRUE(routed_counting) << result.plan.ToString();
}

TEST(KernelRoutingTest, RogaRoutesWideHighCardinalityRoundsToRadix) {
  // Two uniform 20-bit columns over 4M rows: whichever plan wins, its
  // wide rounds sort large groups over domains too wide for counting,
  // where the radix term undercuts merge's.
  ColumnStats stats_a;
  ColumnStats stats_b;
  {
    EncodedColumn a(20, 1 << 16);
    EncodedColumn b(20, 1 << 16);
    Rng rng(63);
    for (size_t r = 0; r < a.size(); ++r) {
      a.Set(r, rng.Next() & 0xFFFFF);
      b.Set(r, rng.Next() & 0xFFFFF);
    }
    stats_a = ColumnStats::Build(a);
    stats_b = ColumnStats::Build(b);
  }
  SortInstanceStats stats;
  stats.n = 1 << 22;
  stats.columns = {&stats_a, &stats_b};
  const CostModel model(CostParams::Default());
  SearchOptions options;
  options.kernels = kRoutableKernels;
  const SearchResult result = RogaSearch(model, stats, options);
  ASSERT_TRUE(result.plan.IsValid());
  bool routed_radix = false;
  for (const Round& round : result.plan.rounds()) {
    if (round.kernel == SortKernel::kRadix) routed_radix = true;
  }
  EXPECT_TRUE(routed_radix) << result.plan.ToString();
}

TEST(KernelRoutingTest, MergeOnlyMaskNeverRoutesElsewhere) {
  ColumnStats stats_col;
  {
    EncodedColumn column(8, 1 << 12);
    Rng rng(62);
    for (size_t r = 0; r < column.size(); ++r) {
      column.Set(r, rng.Next() & 0xFF);
    }
    stats_col = ColumnStats::Build(column);
  }
  SortInstanceStats stats;
  stats.n = 1 << 24;
  stats.columns = {&stats_col};
  const CostModel model(CostParams::Default());
  SearchOptions options;
  options.kernels = KernelBit(SortKernel::kSimdMerge);
  const SearchResult result = RogaSearch(model, stats, options);
  for (const Round& round : result.plan.rounds()) {
    EXPECT_EQ(round.kernel, SortKernel::kSimdMerge);
  }
}

// --- Plan-cache staleness on distinct-distribution drift ------------------

TEST(KernelFingerprintTest, DistinctSketchDriftInvalidates) {
  // Two columns with the same row count, total distinct count, width, and
  // code range but different distinct *distributions*: the fingerprints
  // must differ and the drift must reach the cache's staleness threshold,
  // because the distribution is what routes rounds to the counting kernel.
  const size_t rows = 1 << 14;
  EncodedColumn uniform(16, rows);
  EncodedColumn clustered(16, rows);
  Rng rng(71);
  for (size_t r = 0; r < rows; ++r) {
    // 4096 distinct values spread over the full 16-bit domain...
    uniform.Set(r, (rng.Next() % 4096) << 4);
    // ...vs the same count packed into the bottom buckets.
    clustered.Set(r, rng.Next() % 4096);
  }
  // Pin the code range so only the distribution differs.
  uniform.Set(0, 0);
  uniform.Set(1, 0xFFFF);
  clustered.Set(0, 0);
  clustered.Set(1, 0xFFFF);

  const ColumnStats a = ColumnStats::Build(uniform);
  const ColumnStats b = ColumnStats::Build(clustered);
  const StatsFingerprint fa = FingerprintOf(a);
  const StatsFingerprint fb = FingerprintOf(b);
  EXPECT_NE(fa.distinct_sketch, fb.distinct_sketch);
  EXPECT_GE(FingerprintDrift(fa, fb), 0.2);  // >= PlanCache drift threshold
  // Self-drift stays zero: the sketch must not fire spuriously.
  EXPECT_EQ(FingerprintDrift(fa, fa), 0.0);
  EXPECT_EQ(FingerprintOf(ColumnStats::Build(uniform)).distinct_sketch,
            fa.distinct_sketch);
}

TEST(KernelFingerprintTest, DistinctSketchStableUnderPointDeletes) {
  // A dense 17-bit column fills each of the 4096 histogram buckets with
  // exactly 32 distinct codes. Deleting every row of a few values (what
  // `DELETE WHERE customer = v` does) leaves those buckets at 31: that is
  // jitter, not a reshaped distribution, and must not invalidate plans.
  const Code kDomain = Code{1} << 17;
  const std::vector<Code> deleted = {7, 1000, 50001, 99999, 131071};
  EncodedColumn full(17, 2 * kDomain);
  EncodedColumn thinned(17, 2 * (kDomain - deleted.size()));
  size_t kept = 0;
  for (size_t r = 0; r < full.size(); ++r) {
    const Code code = (r * 40503) % kDomain;  // odd stride: a permutation
    full.Set(r, code);
    if (std::find(deleted.begin(), deleted.end(), code) == deleted.end()) {
      thinned.Set(kept++, code);
    }
  }
  ASSERT_EQ(kept, thinned.size());
  const ColumnStats before = ColumnStats::Build(full);
  const ColumnStats after = ColumnStats::Build(thinned);
  ASSERT_EQ(before.distinct_count(), kDomain);
  ASSERT_EQ(after.distinct_count(), kDomain - deleted.size());
  EXPECT_EQ(before.DistinctSketch(), after.DistinctSketch());
}

}  // namespace
}  // namespace mcsort
