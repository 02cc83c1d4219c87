#include "mcsort/sort/counting_sort.h"

#include <algorithm>
#include <cstring>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/sort/scalar_kernels.h"

namespace mcsort {
namespace {

// Below this size insertion sort beats even one O(K) domain walk.
constexpr size_t kCountingInsertionMax = 64;

// When the domain is this many times larger than the input, the O(K)
// prefix and regeneration walks dominate and the comparison sort wins;
// fall back to SortPairsBank. (The cost model's cache-residency term makes
// the planner avoid this regime anyway — the guard keeps forced dispatch
// and direct callers safe.)
constexpr size_t kCountingDomainSlack = 8;

// The parallel kernel runs only from this many rows per domain bucket: the
// smallest ratio at which it was no slower than the serial kernel at every
// width from 12 to 16 bits on a 2-worker pool (DESIGN.md §11).
constexpr size_t kParallelCountingRowsPerBucket = 32;

// Histogram + exclusive prefix + stable oid scatter + key regeneration.
// After the scatter, counts[v] has advanced from v's start offset to its
// end offset, so the sorted key column is rebuilt by walking the domain —
// sequential stores, no key gather.
template <typename K>
void CountingSortCore(K* keys, uint32_t* oids, size_t n, size_t domain,
                      uint64_t* counts, uint32_t* oid_out) {
  std::memset(counts, 0, domain * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) ++counts[keys[i]];
  uint64_t running = 0;
  for (size_t v = 0; v < domain; ++v) {
    const uint64_t freq = counts[v];
    counts[v] = running;
    running += freq;
  }
  for (size_t i = 0; i < n; ++i) {
    oid_out[counts[keys[i]]++] = oids[i];
  }
  std::memcpy(oids, oid_out, n * sizeof(uint32_t));
  size_t pos = 0;
  for (size_t v = 0; v < domain; ++v) {
    const size_t stop = static_cast<size_t>(counts[v]);
    for (; pos < stop; ++pos) keys[pos] = static_cast<K>(v);
  }
}

template <typename K>
void CountingSortPairsImpl(K* keys, uint32_t* oids, size_t n, int key_width,
                           SortScratch& scratch) {
  if (n <= 1) return;
  MCSORT_CHECK(CountingSortFeasible(key_width));
  if (n <= kCountingInsertionMax) {
    InsertionSortPairs(keys, oids, n);
    return;
  }
  const size_t domain = size_t{1} << key_width;
  if (domain > n * kCountingDomainSlack) {
    SortPairsBank(static_cast<int>(sizeof(K) * 8), keys, oids, n, scratch);
    return;
  }
  scratch.u64_a.EnsureDiscard(domain);
  scratch.u32_a.EnsureDiscard(n);
  CountingSortCore(keys, oids, n, domain, scratch.u64_a.data(),
                   scratch.u32_a.data());
}

}  // namespace

void CountingSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch) {
  CountingSortPairsImpl(keys, oids, n, key_width, scratch);
}

void CountingSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch) {
  CountingSortPairsImpl(keys, oids, n, key_width, scratch);
}

void CountingSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch) {
  CountingSortPairsImpl(keys, oids, n, key_width, scratch);
}

void CountingSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                           int key_width, SortScratch& scratch) {
  switch (bank) {
    case 16:
      CountingSortPairs16(static_cast<uint16_t*>(keys), oids, n, key_width,
                          scratch);
      break;
    case 32:
      CountingSortPairs32(static_cast<uint32_t*>(keys), oids, n, key_width,
                          scratch);
      break;
    case 64:
      CountingSortPairs64(static_cast<uint64_t*>(keys), oids, n, key_width,
                          scratch);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

namespace {

// Parallel counting sort: per-chunk histograms in one shared buffer, a
// serial combined exclusive prefix that hands every (chunk, value) its
// scatter base — chunk-major, so the scatter stays stable — then a
// parallel scatter and a serial key regeneration.
template <typename K>
void ParallelCountingSortImpl(K* keys, uint32_t* oids, size_t n,
                              int key_width, ThreadPool& pool,
                              std::vector<SortScratch>& scratches,
                              const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >=
               static_cast<size_t>(pool.num_threads()));
  MCSORT_CHECK(CountingSortFeasible(key_width));
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows ||
      key_width > kParallelCountingMaxWidth) {
    CountingSortPairsImpl(keys, oids, n, key_width, scratches[0]);
    return;
  }
  const size_t domain = size_t{1} << key_width;
  if (domain > n * kCountingDomainSlack) {
    ParallelSortPairsBank(static_cast<int>(sizeof(K) * 8), keys, oids, n,
                          pool, scratches, ctx);
    return;
  }
  // Below 32 rows per bucket the per-chunk histograms and the (value,
  // chunk) prefix walk cost more than the parallel passes save: the
  // serial kernel's single histogram stays in cache while chunks *
  // domain counters do not (at 8-24 rows per bucket and 12-14 bits the
  // parallel kernel took 1.05-1.8x the serial wall time and 1.8-2.8x its
  // CPU on two workers).
  if (n < (kParallelCountingRowsPerBucket << key_width)) {
    CountingSortPairsImpl(keys, oids, n, key_width, scratches[0]);
    return;
  }
  // A few chunks per worker smooths skew; per-chunk rows stay large
  // enough that the duplicated O(domain) prefix work is noise.
  const size_t chunks =
      std::max<size_t>(1, static_cast<size_t>(pool.num_threads()) * 4);
  const size_t chunk_len = (n + chunks - 1) / chunks;
  uint64_t* hist = nullptr;
  scratches[0].u64_a.EnsureDiscard(chunks * domain);
  hist = scratches[0].u64_a.data();
  scratches[0].u32_a.EnsureDiscard(n);
  uint32_t* oid_out = scratches[0].u32_a.data();

  pool.ParallelFor(
      chunks,
      [&](uint64_t begin, uint64_t end, int) {
        for (size_t c = begin; c < end; ++c) {
          uint64_t* h = hist + c * domain;
          std::memset(h, 0, domain * sizeof(uint64_t));
          const size_t lo = c * chunk_len;
          const size_t hi = std::min(lo + chunk_len, n);
          for (size_t i = lo; i < hi; ++i) ++h[keys[i]];
        }
      },
      ctx);
  if (ctx != nullptr && ctx->StopRequested()) return;

  // Combined exclusive prefix in (value, chunk) order: each chunk's slot
  // for value v becomes the base offset where that chunk scatters its v's.
  uint64_t running = 0;
  for (size_t v = 0; v < domain; ++v) {
    for (size_t c = 0; c < chunks; ++c) {
      uint64_t* slot = hist + c * domain + v;
      const uint64_t freq = *slot;
      *slot = running;
      running += freq;
    }
  }

  pool.ParallelFor(
      chunks,
      [&](uint64_t begin, uint64_t end, int) {
        for (size_t c = begin; c < end; ++c) {
          uint64_t* h = hist + c * domain;
          const size_t lo = c * chunk_len;
          const size_t hi = std::min(lo + chunk_len, n);
          for (size_t i = lo; i < hi; ++i) {
            oid_out[h[keys[i]]++] = oids[i];
          }
        }
      },
      ctx);
  if (ctx != nullptr && ctx->StopRequested()) return;

  pool.ParallelFor(
      n,
      [&](uint64_t begin, uint64_t end, int) {
        std::memcpy(oids + begin, oid_out + begin,
                    (end - begin) * sizeof(uint32_t));
      },
      ctx);
  if (ctx != nullptr && ctx->StopRequested()) return;

  // Key regeneration from the last chunk's advanced offsets (= each
  // value's global end). One sequential store pass; cheap enough serial.
  size_t pos = 0;
  const uint64_t* last = hist + (chunks - 1) * domain;
  for (size_t v = 0; v < domain; ++v) {
    const size_t stop = static_cast<size_t>(last[v]);
    for (; pos < stop; ++pos) keys[pos] = static_cast<K>(v);
  }
}

}  // namespace

void ParallelCountingSortPairsBank(int bank, void* keys, uint32_t* oids,
                                   size_t n, int key_width, ThreadPool& pool,
                                   std::vector<SortScratch>& scratches,
                                   const ExecContext* ctx) {
  switch (bank) {
    case 16:
      ParallelCountingSortImpl(static_cast<uint16_t*>(keys), oids, n,
                               key_width, pool, scratches, ctx);
      break;
    case 32:
      ParallelCountingSortImpl(static_cast<uint32_t*>(keys), oids, n,
                               key_width, pool, scratches, ctx);
      break;
    case 64:
      ParallelCountingSortImpl(static_cast<uint64_t*>(keys), oids, n,
                               key_width, pool, scratches, ctx);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

}  // namespace mcsort
