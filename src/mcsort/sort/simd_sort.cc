#include "mcsort/sort/simd_sort.h"

#include <algorithm>
#include <cstring>

#include "mcsort/common/bits.h"
#include "mcsort/common/cpu_info.h"
#include "mcsort/common/exec_context.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/common/logging.h"
#include "mcsort/simd/simd.h"
#include "mcsort/sort/merge_internal.h"
#include "mcsort/sort/scalar_kernels.h"

namespace mcsort {
namespace {

// Below this size the whole sort is a single insertion sort; the SIMD
// machinery's fixed costs do not pay off for tiny per-group sorts.
constexpr size_t kInsertionMax = kSimdSortInsertionMax;

#if MCSORT_HAVE_AVX2

using sort_internal::FourWayMergePass;
using sort_internal::FourWayScratch;
using sort_internal::MergePass;
using sort_internal::Ops32;
using sort_internal::Ops64;

// Elements per in-cache chunk: a chunk and its merge destination together
// occupy about half the L2 cache (the paper sizes in-cache merged runs at
// 0.5 * M_L2). Rounded down to a power of two, at least 4 registers.
template <typename Ops>
size_t InCacheChunkElems() {
  const size_t bytes_per_elem =
      sizeof(typename Ops::Key) + sizeof(typename Ops::Pay);
  const size_t target = CpuInfo::Get().l2_bytes / 2 / bytes_per_elem / 2;
  size_t chunk = 4 * Ops::kLanes;
  while (chunk * 2 <= target) chunk *= 2;
  return chunk;
}

// Sorts (keys, pays) of length n using (sk, sp) as the ping-pong buffers;
// guarantees the result ends up back in (keys, pays). Three phases per
// Eq. 5: in-register sorting networks, chunk-local in-cache bitonic merge
// passes, then out-of-cache merging with fanout F = 4 (Eq. 8's merge
// tree), falling back to a binary pass when only two runs remain.
template <typename Ops>
void SortCore(typename Ops::Key* keys, typename Ops::Pay* pays,
              typename Ops::Key* sk, typename Ops::Pay* sp, size_t n,
              FourWayScratch<Ops>* fourway) {
  using Key = typename Ops::Key;
  using Pay = typename Ops::Pay;
  constexpr size_t kLanes = Ops::kLanes;

  if (n <= kInsertionMax) {
    InsertionSortPairs(keys, pays, n);
    return;
  }

  // Phase 1 (in-register): sorted runs of kLanes values.
  size_t i = 0;
  for (; i + kLanes * kLanes <= n; i += kLanes * kLanes) {
    Ops::SortBlock(keys + i, pays + i);
  }
  for (; i < n; i += kLanes) {
    InsertionSortPairs(keys + i, pays + i, std::min(kLanes, n - i));
  }

  Key* cur_k = keys;
  Pay* cur_p = pays;
  Key* alt_k = sk;
  Pay* alt_p = sp;
  auto flip = [&] {
    std::swap(cur_k, alt_k);
    std::swap(cur_p, alt_p);
  };

  const size_t chunk = InCacheChunkElems<Ops>();
  if (n <= chunk) {
    for (size_t run = kLanes; run < n; run *= 2) {
      MergePass<Ops>(cur_k, cur_p, alt_k, alt_p, 0, n, run);
      flip();
    }
  } else {
    // Phase 2 (in-cache): every chunk runs the same fixed number of local
    // passes so all chunks land in the same buffer.
    size_t passes = 0;
    for (size_t run = kLanes; run < chunk; run *= 2) ++passes;
    for (size_t c = 0; c < n; c += chunk) {
      const size_t stop = std::min(c + chunk, n);
      Key* a_k = cur_k;
      Pay* a_p = cur_p;
      Key* b_k = alt_k;
      Pay* b_p = alt_p;
      size_t run = kLanes;
      for (size_t p = 0; p < passes; ++p) {
        MergePass<Ops>(a_k, a_p, b_k, b_p, c, stop, run);
        std::swap(a_k, b_k);
        std::swap(a_p, b_p);
        run *= 2;
      }
    }
    if (passes % 2 == 1) flip();
    // Phase 3 (out-of-cache): four-way passes, binary for a final pair.
    for (size_t run = chunk; run < n;) {
      const size_t runs_left = (n + run - 1) / run;
      if (runs_left <= 2) {
        MergePass<Ops>(cur_k, cur_p, alt_k, alt_p, 0, n, run);
        run *= 2;
      } else {
        FourWayMergePass<Ops>(cur_k, cur_p, alt_k, alt_p, 0, n, run,
                              fourway);
        run *= 4;
      }
      flip();
    }
  }

  if (cur_k != keys) {
    std::memcpy(keys, cur_k, n * sizeof(Key));
    std::memcpy(pays, cur_p, n * sizeof(Pay));
  }
}

// Four-way staging buffers, lazily grown, one pair per process... they are
// small and per-call scratch lives in SortScratch: keep them thread-local
// to stay safe under the segment-parallel sorter.
FourWayScratch<Ops32>& FourWay32() {
  thread_local FourWayScratch<Ops32> scratch;
  return scratch;
}
FourWayScratch<Ops64>& FourWay64() {
  thread_local FourWayScratch<Ops64> scratch;
  return scratch;
}

#endif  // MCSORT_HAVE_AVX2

}  // namespace

void SortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch) {
  if (n <= 1) return;
#if MCSORT_HAVE_AVX2
  if (n <= kInsertionMax) {
    InsertionSortPairs(keys, oids, n);
    return;
  }
  scratch.u32_a.EnsureDiscard(n);
  scratch.u32_b.EnsureDiscard(n);
  SortCore<Ops32>(keys, oids, scratch.u32_a.data(), scratch.u32_b.data(), n,
                  &FourWay32());
#else
  ReferenceSortPairs(keys, oids, n);
#endif
}

void SortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch) {
  if (n <= 1) return;
#if MCSORT_HAVE_AVX2
  if (n <= kInsertionMax) {
    InsertionSortPairs(keys, oids, n);
    return;
  }
  // Widen to 32-bit lanes (footnote 4's "simulated with more primitive
  // instructions"), sort with the 32-bit kernel, narrow back.
  scratch.u32_c.EnsureDiscard(n);
  uint32_t* wide = scratch.u32_c.data();
  for (size_t i = 0; i < n; ++i) wide[i] = keys[i];
  scratch.u32_a.EnsureDiscard(n);
  scratch.u32_b.EnsureDiscard(n);
  SortCore<Ops32>(wide, oids, scratch.u32_a.data(), scratch.u32_b.data(), n,
                  &FourWay32());
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint16_t>(wide[i]);
#else
  ReferenceSortPairs(keys, oids, n);
#endif
}

void SortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch) {
  if (n <= 1) return;
#if MCSORT_HAVE_AVX2
  if (n <= kInsertionMax) {
    InsertionSortPairs(keys, oids, n);
    return;
  }
  // 64-bit banks carry 64-bit payload lanes; widen the oids once.
  scratch.u64_a.EnsureDiscard(n);
  scratch.u64_b.EnsureDiscard(n);
  scratch.u64_c.EnsureDiscard(n);
  uint64_t* pay = scratch.u64_a.data();
  for (size_t i = 0; i < n; ++i) pay[i] = oids[i];
  SortCore<Ops64>(keys, pay, scratch.u64_b.data(), scratch.u64_c.data(), n,
                  &FourWay64());
  for (size_t i = 0; i < n; ++i) oids[i] = static_cast<uint32_t>(pay[i]);
#else
  ReferenceSortPairs(keys, oids, n);
#endif
}

namespace {

// Power-of-two part count >= thread count keeps the merge tree regular. A
// stoppable context raises the count until one part — the largest
// uninterruptible unit of phase 1 — stays under kStopSortPartMaxRows.
size_t PartCount(size_t n, int threads, const ExecContext* ctx) {
  size_t parts = 1;
  while (parts < static_cast<size_t>(threads)) parts *= 2;
  if (ctx != nullptr && ctx->stoppable()) {
    while ((n + parts - 1) / parts > kStopSortPartMaxRows && parts < n) {
      parts *= 2;
    }
  }
  return parts;
}

}  // namespace

void ParallelSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >=
               static_cast<size_t>(pool.num_threads()));
#if MCSORT_HAVE_AVX2
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows) {
    SortPairs32(keys, oids, n, scratches[0]);
    return;
  }
  const size_t parts = PartCount(n, pool.num_threads(), ctx);
  const size_t part_len = (n + parts - 1) / parts;

  pool.ParallelFor(
      parts,
      [&](uint64_t begin, uint64_t end, int worker) {
        for (size_t p = begin; p < end; ++p) {
          const size_t lo = p * part_len;
          if (lo >= n) break;
          const size_t hi = std::min(lo + part_len, n);
          SortPairs32(keys + lo, oids + lo, hi - lo,
                      scratches[static_cast<size_t>(worker)]);
        }
      },
      ctx);

  // Parallel pairwise merge passes, ping-ponging with scratches[0].
  scratches[0].u32_a.EnsureDiscard(n);
  scratches[0].u32_b.EnsureDiscard(n);
  sort_internal::ParallelMergePasses<Ops32>(keys, oids,
                                            scratches[0].u32_a.data(),
                                            scratches[0].u32_b.data(), n,
                                            part_len, pool, ctx);
#else
  SortPairs32(keys, oids, n, scratches[0]);
  (void)pool;
  (void)ctx;
#endif
}

void ParallelSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >=
               static_cast<size_t>(pool.num_threads()));
#if MCSORT_HAVE_AVX2
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows) {
    SortPairs16(keys, oids, n, scratches[0]);
    return;
  }
  // Widen to 32-bit lanes (footnote 4, as in the serial kernel) — the
  // widened copy lives in scratches[0].u32_c, which the 32-bit parallel
  // sort never touches — run the 32-bit parallel sort, narrow back.
  scratches[0].u32_c.EnsureDiscard(n);
  uint32_t* wide = scratches[0].u32_c.data();
  pool.ParallelFor(
      n,
      [&](uint64_t begin, uint64_t end, int) {
        for (size_t i = begin; i < end; ++i) wide[i] = keys[i];
      },
      ctx);
  // A stop during the widening leaves `wide` partially written; bail
  // before anything reads it (keys keep their original, defined values).
  if (ctx != nullptr && ctx->StopRequested()) return;
  ParallelSortPairs32(wide, oids, n, pool, scratches, ctx);
  // The narrow-back is unconditional: a stop mid-sort leaves the widened
  // copy unsorted but fully written, so the result is defined garbage the
  // caller discards after re-checking ctx.
  pool.ParallelFor(n, [&](uint64_t begin, uint64_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      keys[i] = static_cast<uint16_t>(wide[i]);
    }
  });
#else
  SortPairs16(keys, oids, n, scratches[0]);
  (void)pool;
  (void)ctx;
#endif
}

void ParallelSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >=
               static_cast<size_t>(pool.num_threads()));
#if MCSORT_HAVE_AVX2
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows) {
    SortPairs64(keys, oids, n, scratches[0]);
    return;
  }
  // 64-bit banks carry 64-bit payload lanes; widen the oids once into
  // scratches[0].u64_c (the per-part sorts only use u64_a/u64_b).
  scratches[0].u64_c.EnsureDiscard(n);
  uint64_t* pay = scratches[0].u64_c.data();
  pool.ParallelFor(
      n,
      [&](uint64_t begin, uint64_t end, int) {
        for (size_t i = begin; i < end; ++i) pay[i] = oids[i];
      },
      ctx);
  // A stop during the widening leaves `pay` partially written; bail before
  // anything reads it.
  if (ctx != nullptr && ctx->StopRequested()) return;

  const size_t parts = PartCount(n, pool.num_threads(), ctx);
  const size_t part_len = (n + parts - 1) / parts;
  pool.ParallelFor(
      parts,
      [&](uint64_t begin, uint64_t end, int worker) {
        SortScratch& scratch = scratches[static_cast<size_t>(worker)];
        for (size_t p = begin; p < end; ++p) {
          const size_t lo = p * part_len;
          if (lo >= n) break;
          const size_t len = std::min(lo + part_len, n) - lo;
          scratch.u64_a.EnsureDiscard(len);
          scratch.u64_b.EnsureDiscard(len);
          SortCore<Ops64>(keys + lo, pay + lo, scratch.u64_a.data(),
                          scratch.u64_b.data(), len, &FourWay64());
        }
      },
      ctx);

  // The part sorts are done with scratches[0]'s ping-pong buffers; regrow
  // them to full length for the merge passes.
  scratches[0].u64_a.EnsureDiscard(n);
  scratches[0].u64_b.EnsureDiscard(n);
  sort_internal::ParallelMergePasses<Ops64>(keys, pay,
                                            scratches[0].u64_a.data(),
                                            scratches[0].u64_b.data(), n,
                                            part_len, pool, ctx);
  pool.ParallelFor(n, [&](uint64_t begin, uint64_t end, int) {
    for (size_t i = begin; i < end; ++i) {
      oids[i] = static_cast<uint32_t>(pay[i]);
    }
  });
#else
  SortPairs64(keys, oids, n, scratches[0]);
  (void)pool;
  (void)ctx;
#endif
}

void ParallelSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                           ThreadPool& pool,
                           std::vector<SortScratch>& scratches,
                           const ExecContext* ctx) {
  switch (bank) {
    case 16:
      ParallelSortPairs16(static_cast<uint16_t*>(keys), oids, n, pool,
                          scratches, ctx);
      break;
    case 32:
      ParallelSortPairs32(static_cast<uint32_t*>(keys), oids, n, pool,
                          scratches, ctx);
      break;
    case 64:
      ParallelSortPairs64(static_cast<uint64_t*>(keys), oids, n, pool,
                          scratches, ctx);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

void SortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                   SortScratch& scratch) {
  switch (bank) {
    case 16:
      SortPairs16(static_cast<uint16_t*>(keys), oids, n, scratch);
      break;
    case 32:
      SortPairs32(static_cast<uint32_t*>(keys), oids, n, scratch);
      break;
    case 64:
      SortPairs64(static_cast<uint64_t*>(keys), oids, n, scratch);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

}  // namespace mcsort
