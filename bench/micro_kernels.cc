// Micro-benchmarks (google-benchmark) of the physical operators backing
// the Sec. 4 cost model: per-bank SIMD sort, the counting and radix
// kernels, code massaging, ByteSlice
// scan, lookup/gather, and the group scan. These are the quantities the
// calibration procedures measure; run them to sanity-check calibrated
// constants (cycles/code = seconds * GHz / N). The BM_Parallel* variants
// run the same operators through the morsel-driven executor with
// MCSORT_THREADS workers (default: the core count, at least 4 so the
// parallel paths are exercised even on small containers).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/cpu_info.h"
#include "mcsort/common/random.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/massage/massage.h"
#include "mcsort/scan/byteslice_scan.h"
#include "mcsort/scan/group_scan.h"
#include "mcsort/scan/lookup.h"
#include "mcsort/sort/counting_sort.h"
#include "mcsort/sort/radix_sort.h"
#include "mcsort/sort/simd_sort.h"
#include "mcsort/storage/byteslice.h"
#include "mcsort/storage/column.h"

namespace mcsort {
namespace {

// Worker count for the BM_Parallel* benches: MCSORT_THREADS if set, else
// max(4, cores) so the parallel code paths run even on a 1-core container.
int BenchThreads() {
  return bench::EnvThreads(std::max(4, CpuInfo::Get().num_cores));
}

template <typename K>
std::vector<K> RandomKeys(size_t n, int width, uint64_t seed) {
  Rng rng(seed);
  std::vector<K> keys(n);
  for (auto& k : keys) k = static_cast<K>(rng.Next() & LowBitsMask(width));
  return keys;
}

void BM_SortPairs16(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint16_t>(n, 16, 1);
  std::vector<uint16_t> keys(n);
  std::vector<uint32_t> oids(n);
  SortScratch scratch;
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    SortPairs16(keys.data(), oids.data(), n, scratch);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortPairs16)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_SortPairs32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint32_t>(n, 32, 2);
  std::vector<uint32_t> keys(n), oids(n);
  SortScratch scratch;
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    SortPairs32(keys.data(), oids.data(), n, scratch);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortPairs32)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_SortPairs64(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint64_t>(n, 64, 3);
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> oids(n);
  SortScratch scratch;
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    SortPairs64(keys.data(), oids.data(), n, scratch);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SortPairs64)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// Counting sort across round widths — the domain (2^width) term is the
// CountingSortParams::per_bucket calibration target; the second range arg
// is the round width.
void BM_CountingSortPairs32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  const auto master = RandomKeys<uint32_t>(n, width, 23);
  std::vector<uint32_t> keys(n), oids(n);
  SortScratch scratch;
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    CountingSortPairs32(keys.data(), oids.data(), n, width, scratch);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_CountingSortPairs32)
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 16})
    ->Args({210000, 14})
    ->Args({210000, 16})
    ->Args({1 << 19, 14})
    ->Args({1 << 20, 8})
    ->Args({1 << 20, 16})
    ->Args({1 << 20, 20});

// The same rounds through the pool. At 210k rows and 14/16-bit keys (a
// filtered GROUP BY round) the kernel routes to the serial one: below 32
// rows per bucket the per-chunk histograms cost more than they save. The
// 2^19-row 14-bit case sits at the cutoff (32 rows per bucket) and runs
// in parallel.
void BM_ParallelCountingSortPairs32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  const auto master = RandomKeys<uint32_t>(n, width, 29);
  std::vector<uint32_t> keys(n), oids(n);
  ThreadPool pool(BenchThreads());
  std::vector<SortScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    ParallelCountingSortPairsBank(32, keys.data(), oids.data(), n, width,
                                  pool, scratches);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelCountingSortPairs32)
    ->Args({210000, 14})
    ->Args({210000, 16})
    ->Args({1 << 19, 14})
    ->Args({1 << 22, 8})
    ->Args({1 << 22, 16});

// Round sorts side by side at the shapes the served plans produce: args
// are (rows, round width, segment length); the round sorts rows / length
// segments of `length` rows each, so one sweep reads the radix term's
// per-invocation overhead (short segments) and its cached and missing
// per-row-pass costs (segments on both sides of L2) next to the merge
// kernel it competes with. K picks the bank; widths 25-32 are the 32-bit
// rounds and 40 the 64-bit round of the TPC-H plans, 2^17-2^21 rows their
// filtered and unfiltered sizes. Counter `passes` = ceil(width / 8).
template <typename K, SortKernel kKernel>
void BM_RoundSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  const size_t length = static_cast<size_t>(state.range(2));
  constexpr int kBankBits = static_cast<int>(sizeof(K) * 8);
  const auto master = RandomKeys<K>(n, width, 31 + width);
  std::vector<K> keys(n);
  std::vector<uint32_t> oids(n);
  SortScratch scratch;
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    for (size_t begin = 0; begin + length <= n; begin += length) {
      if constexpr (kKernel == SortKernel::kRadix) {
        RadixSortPairsBank(kBankBits, keys.data() + begin,
                           oids.data() + begin, length, width, scratch);
      } else {
        SortPairsBank(kBankBits, keys.data() + begin, oids.data() + begin,
                      length, scratch);
      }
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.counters["passes"] = RadixPasses(width);
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}

void ServedRoundShapes32(benchmark::internal::Benchmark* bench) {
  for (const auto& [rows, width] : std::vector<std::pair<int, int>>{
           {1 << 17, 25}, {1 << 19, 28}, {1 << 20, 32}, {1 << 21, 32}}) {
    bench->Args({rows, width, rows});
  }
  for (int length : {128, 1024, 8192, 32768, 65536}) {
    bench->Args({1 << 20, 32, length});
  }
}
void ServedRoundShapes64(benchmark::internal::Benchmark* bench) {
  for (int rows : {1 << 17, 1 << 19, 1 << 21}) bench->Args({rows, 40, rows});
  for (int length : {128, 1024, 8192, 32768, 65536}) {
    bench->Args({1 << 20, 40, length});
  }
}
void ServedRoundShapes16(benchmark::internal::Benchmark* bench) {
  bench->Args({1 << 20, 16, 1 << 20});
  for (int length : {128, 1024, 8192}) bench->Args({1 << 20, 16, length});
}
BENCHMARK_TEMPLATE(BM_RoundSort, uint16_t, SortKernel::kSimdMerge)
    ->Apply(ServedRoundShapes16);
BENCHMARK_TEMPLATE(BM_RoundSort, uint16_t, SortKernel::kRadix)
    ->Apply(ServedRoundShapes16);
BENCHMARK_TEMPLATE(BM_RoundSort, uint32_t, SortKernel::kSimdMerge)
    ->Apply(ServedRoundShapes32);
BENCHMARK_TEMPLATE(BM_RoundSort, uint32_t, SortKernel::kRadix)
    ->Apply(ServedRoundShapes32);
BENCHMARK_TEMPLATE(BM_RoundSort, uint64_t, SortKernel::kSimdMerge)
    ->Apply(ServedRoundShapes64);
BENCHMARK_TEMPLATE(BM_RoundSort, uint64_t, SortKernel::kRadix)
    ->Apply(ServedRoundShapes64);

// The cooperative radix path for one huge segment, against the parallel
// split+merge sort it replaces, at the served whole-round shapes. Run with
// MCSORT_THREADS=2 for the served pool size.
template <typename K, SortKernel kKernel>
void BM_ParallelRoundSort(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  constexpr int kBankBits = static_cast<int>(sizeof(K) * 8);
  const auto master = RandomKeys<K>(n, width, 37 + width);
  std::vector<K> keys(n);
  std::vector<uint32_t> oids(n);
  ThreadPool pool(BenchThreads());
  std::vector<SortScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    if constexpr (kKernel == SortKernel::kRadix) {
      ParallelRadixSortPairsBank(kBankBits, keys.data(), oids.data(), n,
                                 width, pool, scratches);
    } else {
      ParallelSortPairsBank(kBankBits, keys.data(), oids.data(), n, pool,
                            scratches);
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
void ServedParallelShapes(benchmark::internal::Benchmark* bench,
                          std::vector<std::pair<int, int>> shapes) {
  for (const auto& [rows, width] : shapes) bench->Args({rows, width});
  // Wall time plus the CPU of every worker, the served cost metric.
  bench->UseRealTime()->MeasureProcessCPUTime();
}
void ParallelShapes16(benchmark::internal::Benchmark* bench) {
  ServedParallelShapes(bench, {{1 << 20, 16}});
}
void ParallelShapes32(benchmark::internal::Benchmark* bench) {
  ServedParallelShapes(bench, {{1 << 17, 25}, {1 << 19, 28}, {1 << 21, 32}});
}
void ParallelShapes64(benchmark::internal::Benchmark* bench) {
  ServedParallelShapes(bench, {{1 << 17, 40}, {1 << 19, 40}, {1 << 21, 40}});
}
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint16_t, SortKernel::kSimdMerge)
    ->Apply(ParallelShapes16);
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint16_t, SortKernel::kRadix)
    ->Apply(ParallelShapes16);
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint32_t, SortKernel::kSimdMerge)
    ->Apply(ParallelShapes32);
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint32_t, SortKernel::kRadix)
    ->Apply(ParallelShapes32);
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint64_t, SortKernel::kSimdMerge)
    ->Apply(ParallelShapes64);
BENCHMARK_TEMPLATE(BM_ParallelRoundSort, uint64_t, SortKernel::kRadix)
    ->Apply(ParallelShapes64);

void BM_ParallelSortPairs16(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint16_t>(n, 16, 11);
  std::vector<uint16_t> keys(n);
  std::vector<uint32_t> oids(n);
  ThreadPool pool(BenchThreads());
  std::vector<SortScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    ParallelSortPairs16(keys.data(), oids.data(), n, pool, scratches);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSortPairs16)->Arg(1 << 16)->Arg(1 << 20);

void BM_ParallelSortPairs32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint32_t>(n, 32, 12);
  std::vector<uint32_t> keys(n), oids(n);
  ThreadPool pool(BenchThreads());
  std::vector<SortScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    ParallelSortPairs32(keys.data(), oids.data(), n, pool, scratches);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSortPairs32)->Arg(1 << 16)->Arg(1 << 20);

void BM_ParallelSortPairs64(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto master = RandomKeys<uint64_t>(n, 64, 13);
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> oids(n);
  ThreadPool pool(BenchThreads());
  std::vector<SortScratch> scratches(
      static_cast<size_t>(pool.num_threads()));
  for (auto _ : state) {
    keys = master;
    std::iota(oids.begin(), oids.end(), 0);
    ParallelSortPairs64(keys.data(), oids.data(), n, pool, scratches);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelSortPairs64)->Arg(1 << 16)->Arg(1 << 20);

void BM_Massage(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  EncodedColumn a(17, n), b(33, n);
  for (size_t i = 0; i < n; ++i) {
    a.Set(i, rng.Next() & LowBitsMask(17));
    b.Set(i, rng.Next() & LowBitsMask(33));
  }
  std::vector<MassageInput> inputs = {{&a, SortOrder::kAscending},
                                      {&b, SortOrder::kDescending}};
  const MassagePlan plan = MassagePlan::WithMinimalBanks({18, 32});
  for (auto _ : state) {
    auto out = ApplyMassage(inputs, plan);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Massage)->Arg(1 << 16)->Arg(1 << 20);

void BM_ByteSliceScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int width = static_cast<int>(state.range(1));
  Rng rng(5);
  EncodedColumn col(width, n);
  for (size_t i = 0; i < n; ++i) col.Set(i, rng.Next() & LowBitsMask(width));
  const ByteSliceColumn bs = ByteSliceColumn::Build(col);
  const Code literal = LowBitsMask(width) / 3;
  BitVector result;
  for (auto _ : state) {
    ByteSliceScan(bs, CompareOp::kLess, literal, &result);
    benchmark::DoNotOptimize(result.CountOnes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ByteSliceScan)
    ->Args({1 << 20, 8})
    ->Args({1 << 20, 17})
    ->Args({1 << 20, 33});

void BM_Gather(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(6);
  EncodedColumn src(32, n);
  for (size_t i = 0; i < n; ++i) src.Set(i, rng.Next() & 0xFFFFFFFF);
  std::vector<Oid> oids(n);
  std::iota(oids.begin(), oids.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(oids[i - 1], oids[rng.NextBounded(i)]);
  }
  EncodedColumn out;
  for (auto _ : state) {
    GatherColumn(src, oids.data(), n, &out);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_Gather)->Arg(1 << 16)->Arg(1 << 22);

void BM_ParallelGather(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(16);
  EncodedColumn src(32, n);
  for (size_t i = 0; i < n; ++i) src.Set(i, rng.Next() & 0xFFFFFFFF);
  std::vector<Oid> oids(n);
  std::iota(oids.begin(), oids.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(oids[i - 1], oids[rng.NextBounded(i)]);
  }
  ThreadPool pool(BenchThreads());
  EncodedColumn out;
  for (auto _ : state) {
    GatherColumn(src, oids.data(), n, &out, &pool);
    benchmark::DoNotOptimize(out.raw_data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelGather)->Arg(1 << 22);

void BM_GroupScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  EncodedColumn keys(20, n);
  // Sorted keys with ~n/64 groups.
  std::vector<uint32_t> values(n);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextBounded(n / 64));
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < n; ++i) keys.Set(i, values[i]);
  const Segments whole = Segments::Whole(n);
  Segments out;
  for (auto _ : state) {
    FindGroups(keys, whole, &out);
    benchmark::DoNotOptimize(out.bounds.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_GroupScan)->Arg(1 << 20);

void BM_ParallelGroupScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  EncodedColumn keys(20, n);
  std::vector<uint32_t> values(n);
  for (auto& v : values) v = static_cast<uint32_t>(rng.NextBounded(n / 64));
  std::sort(values.begin(), values.end());
  for (size_t i = 0; i < n; ++i) keys.Set(i, values[i]);
  const Segments whole = Segments::Whole(n);
  ThreadPool pool(BenchThreads());
  Segments out;
  for (auto _ : state) {
    FindGroups(keys, whole, &out, &pool);
    benchmark::DoNotOptimize(out.bounds.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ParallelGroupScan)->Arg(1 << 20);

}  // namespace
}  // namespace mcsort

BENCHMARK_MAIN();
