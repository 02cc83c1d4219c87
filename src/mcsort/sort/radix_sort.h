// LSD radix sort of (key, oid) pairs — the paper's Sec. 7 future-work
// direction ("include radix-sort into our study: the performance of
// in-memory radix-sort depends on the size of the radix... code massaging
// would allow a careful choice of the radix size when radix-sorting
// multiple columns").
//
// Unlike the SIMD merge-sort, whose cost depends on the *bank* (16/32/64)
// and on log N, radix cost depends on the number of digit passes
// ceil(w / 8) — directly on the round's code width w. Code massaging
// therefore interacts with radix through a different mechanism: moving a
// boundary bit can remove a whole pass, so ROGA prices the kernel per
// round (CostModel's radix term) and routes the rounds it wins.
//
// The kernel is the multi-digit generalisation of the counting kernel
// (sort/counting_sort.h): each pass is a stable counting step on one 8-bit
// digit, ping-ponging between the input arrays and scratch of the same
// size as the merge sort's. Only the low `key_width` bits participate, so
// narrow codes stored in wide types do not pay for zero digits. One read
// pass builds every digit's histogram, and a digit that is constant over
// the input costs no scatter pass. Large inputs first partition on their
// top non-constant digit, so the remaining passes run cache-resident per
// bucket. Stable.
#ifndef MCSORT_SORT_RADIX_SORT_H_
#define MCSORT_SORT_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsort/sort/simd_sort.h"

namespace mcsort {

// Digit size: a 256-counter histogram per digit stays in L1, and the 256
// scatter streams stay within what the store buffers and L1 can combine.
constexpr int kRadixDigitBits = 8;

// Below this many rows the kernel runs one insertion sort: the per-digit
// histogram and prefix work does not pay off.
constexpr size_t kRadixInsertionMax = 64;

// Digit passes a `key_width`-bit round needs before constant digits are
// skipped — the pass count the cost model charges.
constexpr int RadixPasses(int key_width) {
  return (key_width + kRadixDigitBits - 1) / kRadixDigitBits;
}

// Sorts keys[0..n) ascending by their low `key_width` bits (all set bits
// must lie within them, as round codes guarantee), permuting oids
// identically. 1 <= key_width <= bank.
void RadixSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);
void RadixSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);
void RadixSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch);

// Dispatch on the physical bank type (like SortPairsBank).
void RadixSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                        int key_width, SortScratch& scratch);

class ExecContext;  // common/exec_context.h
class ThreadPool;   // common/thread_pool.h

// Cooperative parallel radix sort for one huge segment: the top
// non-constant digit partitions the rows with the chunked counting step
// shared with the parallel counting kernel (sort/chunked_counts.h) —
// per-chunk histograms, a prefix over (digit value, chunk), a parallel
// stable scatter — and workers then claim the up to 256 buckets as
// morsels and sort them on the lower digits with the serial kernel.
// Output is identical to the serial kernel's. Falls back to it when the
// pool has one worker or n is below kParallelSortMinRows. A stoppable
// `ctx` is checked between phases, chunks and buckets; on a stop the
// arrays are unspecified and the caller discards them after re-checking
// ctx.
void ParallelRadixSortPairsBank(int bank, void* keys, uint32_t* oids,
                                size_t n, int key_width, ThreadPool& pool,
                                std::vector<SortScratch>& scratches,
                                const ExecContext* ctx = nullptr);

}  // namespace mcsort

#endif  // MCSORT_SORT_RADIX_SORT_H_
