// The cooperative histogram-and-scatter step shared by the parallel
// counting kernel (sort/counting_sort.cc) and the parallel radix kernel's
// top-digit partition (sort/radix_sort.cc): one radix pass is a stable
// counting sort on one digit, so both run the same three phases over the
// same chunking.
//
//   1. CountChunks    — each contiguous chunk of [0, n) fills its own
//                       histogram (parallel over chunks);
//   2. ChunkMajorOffsets — one serial exclusive prefix in (bucket, chunk)
//                       order hands every (chunk, bucket) its scatter base;
//   3. ScatterChunks  — each chunk walks its rows in input order and moves
//                       each to its bucket's next slot (parallel).
//
// Walking buckets outer and chunks inner keeps the scatter stable: every
// row of chunk c lands before the same bucket's rows of chunk c + 1.
// Chunk c's `buckets` counters are counts[c * buckets, (c + 1) * buckets).
// Internal to sort/; not part of the public API.
#ifndef MCSORT_SORT_CHUNKED_COUNTS_H_
#define MCSORT_SORT_CHUNKED_COUNTS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/thread_pool.h"

namespace mcsort::sort_internal {

// Contiguous row chunks. A few chunks per worker smooths skew; per-chunk
// rows stay large enough that the per-chunk O(buckets) work is noise.
struct ChunkGrid {
  size_t n = 0;
  size_t chunks = 1;
  size_t chunk_len = 0;

  ChunkGrid(size_t rows, const ThreadPool& pool)
      : n(rows),
        chunks(std::max<size_t>(
            1, static_cast<size_t>(pool.num_threads()) * 4)),
        chunk_len((rows + chunks - 1) / chunks) {}

  size_t begin(size_t c) const { return std::min(n, c * chunk_len); }
  size_t end(size_t c) const { return std::min(n, (c + 1) * chunk_len); }
};

// Phase 1: zeroes each chunk's counters, then calls ++h[bucket(i)] for
// every row i of the chunk, h being that chunk's counters. Returns false
// when `ctx` stopped the pool.
template <typename Bucket>
bool CountChunks(const ChunkGrid& grid, size_t buckets, uint64_t* counts,
                 const Bucket& bucket, ThreadPool& pool,
                 const ExecContext* ctx) {
  pool.ParallelFor(
      grid.chunks,
      [&](uint64_t first, uint64_t last, int) {
        for (size_t c = first; c < last; ++c) {
          uint64_t* h = counts + c * buckets;
          std::fill(h, h + buckets, uint64_t{0});
          const size_t hi = grid.end(c);
          for (size_t i = grid.begin(c); i < hi; ++i) ++h[bucket(i)];
        }
      },
      ctx);
  return ctx == nullptr || !ctx->StopRequested();
}

// Phase 2: turns per-chunk counts into per-chunk scatter bases, in
// (bucket, chunk) order.
inline void ChunkMajorOffsets(const ChunkGrid& grid, size_t buckets,
                              uint64_t* counts) {
  uint64_t running = 0;
  for (size_t b = 0; b < buckets; ++b) {
    for (size_t c = 0; c < grid.chunks; ++c) {
      uint64_t* slot = counts + c * buckets + b;
      const uint64_t freq = *slot;
      *slot = running;
      running += freq;
    }
  }
}

// Phase 3: calls scatter(i, h) for every row i of every chunk, in input
// order within the chunk; scatter moves row i to h[bucket]++. Afterwards
// the last chunk's slot of each bucket holds that bucket's global end.
// Returns false when `ctx` stopped the pool.
template <typename Scatter>
bool ScatterChunks(const ChunkGrid& grid, size_t buckets, uint64_t* counts,
                   const Scatter& scatter, ThreadPool& pool,
                   const ExecContext* ctx) {
  pool.ParallelFor(
      grid.chunks,
      [&](uint64_t first, uint64_t last, int) {
        for (size_t c = first; c < last; ++c) {
          uint64_t* h = counts + c * buckets;
          const size_t hi = grid.end(c);
          for (size_t i = grid.begin(c); i < hi; ++i) scatter(i, h);
        }
      },
      ctx);
  return ctx == nullptr || !ctx->StopRequested();
}

}  // namespace mcsort::sort_internal

#endif  // MCSORT_SORT_CHUNKED_COUNTS_H_
