// SIMD-enabled merge-sort of (key, oid) pairs — the paper's `SIMD-Sort`
// physical operator, one implementation per bank size b in {16, 32, 64}.
//
// Implementation follows the merge-sort with sorting-network kernel of
// Balkesen et al. [5] as modeled by the paper's Eq. 5:
//   1. in-register phase: sorting networks produce runs of S/b values;
//   2. in-cache phase: bitonic-merge passes, chunk-local so runs up to
//      half the L2 cache are built without leaving L2;
//   3. out-of-cache phase: merge passes over the whole array.
// Tiny inputs short-circuit to insertion sort (groups in later sorting
// rounds are often a handful of rows).
//
// Keys sort ascending as unsigned integers; `oids` is permuted identically.
// The b=16 sort stores 16-bit keys but widens to 32-bit lanes internally —
// AVX2 lacks several 16-bit-bank operations, so they are "simulated with
// more primitive instructions" exactly as the paper's footnote 4 describes,
// which is why b=16 performs close to b=32 rather than 2x faster.
#ifndef MCSORT_SORT_SIMD_SORT_H_
#define MCSORT_SORT_SIMD_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsort/common/aligned_buffer.h"

namespace mcsort {

// Below this many rows SortPairs* short-circuits to a single insertion
// sort. Exposed so the segment-sort executor can bucket "tiny" groups
// (later sorting rounds produce many of them) and batch their dispatch.
constexpr size_t kSimdSortInsertionMax = 32;

// Below this many rows the parallel whole-array sorts fall back to the
// serial kernels: split + merge bookkeeping does not pay off.
constexpr size_t kParallelSortMinRows = 4096;

// Reusable scratch for the sort routines. One instance per thread; reusing
// it across calls keeps the per-call overhead (the cost model's C_overhead)
// to buffer bookkeeping rather than repeated large allocations.
struct SortScratch {
  AlignedBuffer<uint32_t> u32_a;
  AlignedBuffer<uint32_t> u32_b;
  AlignedBuffer<uint32_t> u32_c;
  AlignedBuffer<uint64_t> u64_a;
  AlignedBuffer<uint64_t> u64_b;
  AlignedBuffer<uint64_t> u64_c;
};

// Sorts keys[0..n) ascending, permuting oids identically. Keys may use the
// full width of their type.
void SortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch);
void SortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch);
void SortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                 SortScratch& scratch);

// Dispatches on bank size (16, 32, or 64); `keys` must point to an array of
// the matching integer type.
void SortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                   SortScratch& scratch);

class ExecContext;  // common/exec_context.h
class ThreadPool;   // common/thread_pool.h

// When a stoppable ExecContext is attached, the parallel sorts cap the
// phase-1 part length at this many rows (raising the part count instead):
// one part sort is the largest uninterruptible unit, so its size bounds
// the cancellation latency.
constexpr size_t kStopSortPartMaxRows = size_t{1} << 20;

// Parallel whole-array sorts, one per bank: the array is split into 2^k
// parts sorted concurrently (one SortScratch per worker), then merged by
// parallel pairwise passes. `scratches` must hold one entry per pool
// worker; scratches[0] also provides the ping-pong buffers for the merge
// passes (and the widening buffer for the 16/64-bit banks). Arrays below
// kParallelSortMinRows fall back to the serial kernels.
//
// A stoppable `ctx` makes the sort cancellable at bounded latency: extra
// (smaller) parts in phase 1 and chunked pair merges in the passes. On a
// stop the array contents are unspecified — the caller re-checks ctx and
// discards them. Plain contexts add no overhead.
void ParallelSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx = nullptr);
void ParallelSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx = nullptr);
void ParallelSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                         ThreadPool& pool,
                         std::vector<SortScratch>& scratches,
                         const ExecContext* ctx = nullptr);

// Dispatches on bank size (16, 32, or 64); `keys` must point to an array
// of the matching integer type.
void ParallelSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                           ThreadPool& pool,
                           std::vector<SortScratch>& scratches,
                           const ExecContext* ctx = nullptr);

}  // namespace mcsort

#endif  // MCSORT_SORT_SIMD_SORT_H_
