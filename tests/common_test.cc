// Tests for the common substrate: bit utilities, PRNG, Zipf generator,
// aligned buffers, thread pool, and a fast smoke test of the cost-model
// calibration pipeline.
#include <atomic>
#include <cmath>
#include <map>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/cpu_info.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/zipf.h"
#include "mcsort/cost/calibration.h"

// Whether this binary runs under TSan/ASan (GCC and Clang spellings):
// timing-based assertions are skipped there.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define MCSORT_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define MCSORT_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef MCSORT_TEST_UNDER_SANITIZER
#define MCSORT_TEST_UNDER_SANITIZER 0
#endif

namespace mcsort {
namespace {

TEST(BitsTest, Masks) {
  EXPECT_EQ(LowBitsMask(0), 0u);
  EXPECT_EQ(LowBitsMask(1), 1u);
  EXPECT_EQ(LowBitsMask(12), 0xFFFu);
  EXPECT_EQ(LowBitsMask(64), ~uint64_t{0});
}

TEST(BitsTest, WidthHelpers) {
  EXPECT_EQ(BitsForValue(0), 1);
  EXPECT_EQ(BitsForValue(1), 1);
  EXPECT_EQ(BitsForValue(2), 2);
  EXPECT_EQ(BitsForValue(255), 8);
  EXPECT_EQ(BitsForValue(256), 9);
  EXPECT_EQ(BitsForValue(uint64_t{1} << 63), 64);
  EXPECT_EQ(BitsForValue(~uint64_t{0}), 64);
  EXPECT_EQ(BitsForCount(1), 1);
  EXPECT_EQ(BitsForCount(2), 1);
  EXPECT_EQ(BitsForCount(3), 2);
  EXPECT_EQ(BitsForCount(25), 5);    // TPC-H nations
  EXPECT_EQ(BitsForCount(2526), 12); // TPC-H ship dates
}

TEST(BitsTest, BankSelection) {
  EXPECT_EQ(MinBankForWidth(1), 16);
  EXPECT_EQ(MinBankForWidth(16), 16);
  EXPECT_EQ(MinBankForWidth(17), 32);
  EXPECT_EQ(MinBankForWidth(32), 32);
  EXPECT_EQ(MinBankForWidth(33), 64);
  EXPECT_EQ(MinBankForWidth(64), 64);
}

TEST(BitsTest, Complement) {
  // The paper's footnote example: complement of 5 = (101)2 within 3 bits
  // is (010)2 = 2.
  EXPECT_EQ(ComplementCode(5, 3), 2u);
  EXPECT_EQ(ComplementCode(0, 4), 15u);
  // Complement is order-reversing within the width.
  for (int w : {3, 8, 17}) {
    const uint64_t mask = LowBitsMask(w);
    EXPECT_GT(ComplementCode(0, w), ComplementCode(mask, w));
    EXPECT_GT(ComplementCode(1, w), ComplementCode(2, w));
  }
}

TEST(BitsTest, ExtractBits) {
  EXPECT_EQ(ExtractBits(0b110101, 3, 1), 0b010u);
  EXPECT_EQ(ExtractBits(0xFF00, 15, 8), 0xFFu);
}

TEST(RngTest, DeterministicAndBounded) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(37), 37u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RoughlyUniform) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);  // within 10% relative
  }
}

TEST(ZipfTest, SkewAndSupport) {
  Rng rng(5);
  ZipfGenerator zipf(100, 1.0);
  std::map<uint64_t, int> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[zipf.Next(rng)];
  // Rank 0 should be about 1/H_100 ~ 19% of draws; rank 99 about 0.19%.
  EXPECT_GT(counts[0], n / 8);
  EXPECT_LT(counts[99], n / 100);
  // Monotone-ish head.
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[99]);
  // theta = 0 degenerates to uniform.
  ZipfGenerator uniform(100, 0.0);
  std::map<uint64_t, int> ucounts;
  for (int i = 0; i < n; ++i) ++ucounts[uniform.Next(rng)];
  EXPECT_NEAR(ucounts[0], n / 100, n / 200);
}

TEST(AlignedBufferTest, AlignmentAndReuse) {
  AlignedBuffer<uint32_t> buffer(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buffer.data()) % kSimdAlignment, 0u);
  uint32_t* first = buffer.data();
  buffer.Reset(50);  // shrink: must reuse the allocation
  EXPECT_EQ(buffer.data(), first);
  EXPECT_EQ(buffer.size(), 50u);
  buffer.Reset(1000);  // grow: reallocates
  EXPECT_EQ(buffer.size(), 1000u);
  buffer.Fill(7);
  EXPECT_EQ(buffer[999], 7u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const uint64_t n = 100001;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, [&](uint64_t begin, uint64_t end, int) {
    for (uint64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  uint64_t sum = 0;  // no synchronization needed: runs on the caller
  pool.ParallelFor(1000, [&](uint64_t begin, uint64_t end, int worker) {
    EXPECT_EQ(worker, 0);
    for (uint64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 999u * 1000 / 2);
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(997, [&](uint64_t begin, uint64_t end, int) {
      uint64_t local = 0;
      for (uint64_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    ASSERT_EQ(sum.load(), 996u * 997 / 2);
  }
}

TEST(CpuInfoTest, SaneValues) {
  const CpuInfo& cpu = CpuInfo::Get();
  EXPECT_GE(cpu.num_cores, 1);
  EXPECT_GE(cpu.l2_bytes, 64u * 1024);
  EXPECT_GE(cpu.llc_bytes, cpu.l2_bytes);
  EXPECT_GT(cpu.ghz, 0.3);
  EXPECT_LT(cpu.ghz, 10.0);
}

TEST(CalibrationSmokeTest, ProducesPhysicalConstants) {
  // Tiny calibration: exercises every fitting path quickly.
  CalibrationOptions options;
  options.sort_rows = 1 << 16;
  options.massage_rows = 1 << 16;
  options.lookup_rows_cap = 1 << 18;
  options.repeats = 1;
  const CostParams params = Calibrate(options);
  EXPECT_GT(params.cache_cycles, 0);
  EXPECT_GE(params.mem_cycles, params.cache_cycles);
  EXPECT_GT(params.massage_cycles, 0);
  EXPECT_GT(params.scan_cycles, 0);
  for (int bank : {16, 32, 64}) {
    const BankSortParams& bp = params.bank(bank);
    EXPECT_GT(bp.overhead, 0) << bank;
    EXPECT_GT(bp.sort_network + bp.in_cache_merge, 0) << bank;
    EXPECT_GT(bp.out_of_cache_merge, 0) << bank;
  }
  // The 64-bit bank moves half the lanes per instruction; its per-code
  // cost must exceed the 32-bit bank's. Sanitizer instrumentation skews
  // relative kernel timings, so only assert this on plain builds.
#if !MCSORT_TEST_UNDER_SANITIZER
  EXPECT_GT(params.bank64.sort_network + params.bank64.in_cache_merge,
            params.bank32.sort_network + params.bank32.in_cache_merge);
#endif
}

}  // namespace
}  // namespace mcsort
