// Counting (frequency) sort of (key, oid) pairs — the CAFS-style O(N + K)
// kernel for rounds whose code domain is small relative to N.
//
// Massaged rounds often sort a few bits of the concatenated key over many
// rows (the planner deliberately narrows early rounds), which is exactly
// the regime where comparison sorting wastes work: with K = 2^w possible
// codes and N >> K, a histogram + stable scatter sorts in one read pass
// plus one permute pass, independent of log N. Keys are not even
// scattered — after the oid scatter the counts array says how many of each
// value exist, so the sorted key column is *regenerated* by walking the
// domain (sequential stores, no second gather).
//
// Stability: equal-key oids keep their input order (the scatter walks the
// input left to right through exclusive prefix offsets). Multi-round
// sorting does not require stability (each round re-sorts within groups),
// but it is free here and keeps FindGroups' group-relative oid order
// deterministic.
#ifndef MCSORT_SORT_COUNTING_SORT_H_
#define MCSORT_SORT_COUNTING_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsort/sort/simd_sort.h"

namespace mcsort {

// Widest round code the counting kernel accepts: 2^20 counters * 8 bytes =
// 8 MB of histogram, the point past which the histogram itself thrashes
// the cache and the O(K) prefix/regenerate walks stop being noise. The
// cost model treats wider rounds as infeasible for this kernel.
constexpr int kCountingMaxWidth = 20;

// The parallel variant keeps per-chunk histograms, so its domain cap is
// tighter: chunks * 2^16 counters stay within a few MB.
constexpr int kParallelCountingMaxWidth = 16;

inline bool CountingSortFeasible(int key_width) {
  return key_width >= 1 && key_width <= kCountingMaxWidth;
}

// Sorts keys[0..n) ascending by their low `key_width` bits (all set bits
// must lie within them, as round codes guarantee), permuting oids
// identically. Requires CountingSortFeasible(key_width). Inputs too small
// to amortize the O(K) domain walks fall back to insertion / SIMD sort.
void CountingSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch);
void CountingSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch);
void CountingSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                         int key_width, SortScratch& scratch);

// Dispatch on the physical bank type (like SortPairsBank).
void CountingSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                           int key_width, SortScratch& scratch);

class ExecContext;  // common/exec_context.h
class ThreadPool;   // common/thread_pool.h

// Parallel counting sort: per-chunk histograms combined into one exclusive
// prefix, then a parallel stable scatter (chunk-major order preserves
// stability) and a serial key regeneration. Falls back to the serial
// kernel, with identical output, when the pool is small, n is small,
// n < 32 * 2^key_width, or key_width exceeds kParallelCountingMaxWidth. A
// stoppable `ctx` is checked between phases and chunks; on a stop the
// arrays are unspecified and the caller discards them after re-checking
// ctx.
void ParallelCountingSortPairsBank(int bank, void* keys, uint32_t* oids,
                                   size_t n, int key_width, ThreadPool& pool,
                                   std::vector<SortScratch>& scratches,
                                   const ExecContext* ctx = nullptr);

}  // namespace mcsort

#endif  // MCSORT_SORT_COUNTING_SORT_H_
