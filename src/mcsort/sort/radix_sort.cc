#include "mcsort/sort/radix_sort.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/sort/chunked_counts.h"
#include "mcsort/sort/scalar_kernels.h"

namespace mcsort {
namespace {

constexpr size_t kRadixBuckets = size_t{1} << kRadixDigitBits;

// From this many rows the serial kernel partitions on the top digit before
// its LSD passes (RadixSortRows): a sweep of 2^15-2^21 rows at 32 and 40
// bits had the partition ahead from here on, and behind on 8192-row
// inputs, whose 32-row buckets drop to insertion sort.
constexpr size_t kRadixMsdMinRows = size_t{1} << 15;

template <typename K>
inline size_t DigitOf(K key, int shift) {
  return static_cast<size_t>(static_cast<uint64_t>(key) >> shift) &
         (kRadixBuckets - 1);
}

// The ping-pong arrays one radix sort of n rows scatters into: the same
// SortScratch arrays the merge sort of that bank uses, so routing a round
// to radix does not raise its scratch high-water mark. 16-bit keys live in
// the low half of a 32-bit buffer.
template <typename K>
struct PingPong {
  K* keys;
  uint32_t* oids;
};

template <typename K>
PingPong<K> ScratchFor(SortScratch& scratch, size_t n) {
  if constexpr (sizeof(K) == 8) {
    scratch.u64_a.EnsureDiscard(n);
    scratch.u32_a.EnsureDiscard(n);
    return {scratch.u64_a.data(), scratch.u32_a.data()};
  } else {
    scratch.u32_a.EnsureDiscard(n);
    scratch.u32_b.EnsureDiscard(n);
    return {reinterpret_cast<K*>(scratch.u32_a.data()),
            scratch.u32_b.data()};
  }
}

// LSD passes over the low kDigits digits of the n rows in `a`, ping-
// ponging with `b`. One read builds every digit's histogram; a digit whose
// histogram puts all n rows in one bucket (the bucket of any row's digit)
// is skipped. Returns true when the sorted rows ended in `b`.
template <typename K, int kDigits>
bool LsdPasses(PingPong<K> a, PingPong<K> b, size_t n) {
  uint32_t counts[kDigits][kRadixBuckets] = {};
  for (size_t i = 0; i < n; ++i) {
    const K key = a.keys[i];
    for (int d = 0; d < kDigits; ++d) {
      ++counts[d][DigitOf(key, d * kRadixDigitBits)];
    }
  }
  bool in_b = false;
  for (int d = 0; d < kDigits; ++d) {
    const int shift = d * kRadixDigitBits;
    uint32_t* offsets = counts[d];
    if (offsets[DigitOf(a.keys[0], shift)] == n) continue;  // constant digit
    uint32_t running = 0;
    for (size_t bucket = 0; bucket < kRadixBuckets; ++bucket) {
      const uint32_t freq = offsets[bucket];
      offsets[bucket] = running;
      running += freq;
    }
    for (size_t i = 0; i < n; ++i) {
      const K key = a.keys[i];
      const uint32_t pos = offsets[DigitOf(key, shift)]++;
      b.keys[pos] = key;
      b.oids[pos] = a.oids[i];
    }
    std::swap(a, b);
    in_b = !in_b;
  }
  return in_b;
}

// Instantiates LsdPasses for the digit count at compile time, so the
// histogram loop unrolls; a K-byte key has at most sizeof(K) digits.
template <typename K, int kDigits = 1>
bool LsdPassesFor(int digits, PingPong<K> a, PingPong<K> b, size_t n) {
  if constexpr (kDigits < static_cast<int>(sizeof(K))) {
    if (digits > kDigits) {
      return LsdPassesFor<K, kDigits + 1>(digits, a, b, n);
    }
  }
  return LsdPasses<K, kDigits>(a, b, n);
}

// Histogram of digit `digit` over the n rows of `a`, into counts[1..256]
// (counts[0] = 0, ready for an in-place prefix). Returns false when every
// row has the same digit.
template <typename K>
bool CountDigit(PingPong<K> a, size_t n, int digit, uint32_t* counts) {
  const int shift = digit * kRadixDigitBits;
  std::fill(counts, counts + kRadixBuckets + 1, 0u);
  for (size_t i = 0; i < n; ++i) ++counts[DigitOf(a.keys[i], shift) + 1];
  return counts[DigitOf(a.keys[0], shift) + 1] != n;
}

// Sorts the n rows of `a` by their low `digits` digits (none: already
// sorted), leaving the result in `b` when `into_b` and in `a` otherwise;
// both serve as scratch.
//
// Inputs of kRadixMsdMinRows rows or more first scatter once on their top
// non-constant digit, which splits them into up to 256 buckets, and then
// sort each bucket on the lower digits while it is cache-resident. Plain
// LSD passes over such an input miss on every scatter (at 2^21 rows and
// 32 bits they took 1.8x the time, DESIGN.md §11). The partition and every
// LSD pass are stable, so the output is the stable sort either way.
template <typename K>
void RadixSortRows(int digits, PingPong<K> a, PingPong<K> b, size_t n,
                   bool into_b) {
  if (digits == 0 || n <= kRadixInsertionMax) {
    const PingPong<K> out = into_b ? b : a;
    if (into_b) {
      std::memcpy(b.keys, a.keys, n * sizeof(K));
      std::memcpy(b.oids, a.oids, n * sizeof(uint32_t));
    }
    if (digits > 0) InsertionSortPairs(out.keys, out.oids, n);
    return;
  }
  if (n >= kRadixMsdMinRows && digits > 1) {
    uint32_t starts[kRadixBuckets + 1];
    int top = digits - 1;
    while (top > 0 && !CountDigit(a, n, top, starts)) --top;
    if (top > 0) {
      const int shift = top * kRadixDigitBits;
      uint32_t next[kRadixBuckets];
      for (size_t bucket = 0; bucket < kRadixBuckets; ++bucket) {
        starts[bucket + 1] += starts[bucket];
        next[bucket] = starts[bucket];
      }
      for (size_t i = 0; i < n; ++i) {
        const K key = a.keys[i];
        const uint32_t pos = next[DigitOf(key, shift)]++;
        b.keys[pos] = key;
        b.oids[pos] = a.oids[i];
      }
      for (size_t bucket = 0; bucket < kRadixBuckets; ++bucket) {
        const size_t begin = starts[bucket];
        const size_t len = starts[bucket + 1] - begin;
        if (len == 0) continue;
        RadixSortRows(top, PingPong<K>{b.keys + begin, b.oids + begin},
                      PingPong<K>{a.keys + begin, a.oids + begin}, len,
                      !into_b);
      }
      return;
    }
    digits = 1;  // every digit above the lowest is constant
  }
  const bool in_b = LsdPassesFor(digits, a, b, n);
  if (in_b != into_b) {
    const PingPong<K> from = in_b ? b : a;
    const PingPong<K> to = in_b ? a : b;
    std::memcpy(to.keys, from.keys, n * sizeof(K));
    std::memcpy(to.oids, from.oids, n * sizeof(uint32_t));
  }
}

template <typename K>
void RadixSortPairsImpl(K* keys, uint32_t* oids, size_t n, int key_width,
                        SortScratch& scratch) {
  if (n <= 1) return;
  MCSORT_CHECK(key_width >= 1 &&
               key_width <= static_cast<int>(sizeof(K) * 8));
  MCSORT_CHECK(n <= std::numeric_limits<uint32_t>::max());
  if (n <= kRadixInsertionMax) {
    InsertionSortPairs(keys, oids, n);  // no scratch needed
    return;
  }
  RadixSortRows(RadixPasses(key_width), PingPong<K>{keys, oids},
                ScratchFor<K>(scratch, n), n, /*into_b=*/false);
}

// Cooperative sort of one huge segment: the top non-constant digit's
// partition runs as the chunked counting step shared with the parallel
// counting kernel, then workers claim the up to 256 buckets as morsels and
// sort each on the lower digits with the serial kernel, between the
// bucket's slices of the scratch and the input arrays. The stable
// partition and stable bucket sorts reproduce the serial kernel's output.
template <typename K>
void ParallelRadixSortImpl(K* keys, uint32_t* oids, size_t n, int key_width,
                           ThreadPool& pool,
                           std::vector<SortScratch>& scratches,
                           const ExecContext* ctx) {
  MCSORT_CHECK(scratches.size() >= static_cast<size_t>(pool.num_threads()));
  if (pool.num_threads() <= 1 || n < kParallelSortMinRows) {
    RadixSortPairsImpl(keys, oids, n, key_width, scratches[0]);
    return;
  }
  MCSORT_CHECK(key_width >= 1 &&
               key_width <= static_cast<int>(sizeof(K) * 8));
  MCSORT_CHECK(n <= std::numeric_limits<uint32_t>::max());
  const sort_internal::ChunkGrid grid(n, pool);
  const PingPong<K> input{keys, oids};
  const PingPong<K> scratch = ScratchFor<K>(scratches[0], n);
  scratches[0].u64_b.EnsureDiscard(grid.chunks * kRadixBuckets);
  uint64_t* hist = scratches[0].u64_b.data();

  // Top non-constant digit: usually the first digit counted.
  int top = RadixPasses(key_width) - 1;
  for (;; --top) {
    if (top < 0) return;  // every key is equal
    const int shift = top * kRadixDigitBits;
    if (!sort_internal::CountChunks(
            grid, kRadixBuckets, hist,
            [keys, shift](size_t i) { return DigitOf(keys[i], shift); },
            pool, ctx)) {
      return;
    }
    const size_t first = DigitOf(keys[0], shift);
    uint64_t total = 0;
    for (size_t c = 0; c < grid.chunks; ++c) {
      total += hist[c * kRadixBuckets + first];
    }
    if (total != n) break;
  }
  const int shift = top * kRadixDigitBits;
  sort_internal::ChunkMajorOffsets(grid, kRadixBuckets, hist);
  // Chunk 0's base of each bucket is the bucket's global start.
  uint32_t starts[kRadixBuckets + 1];
  for (size_t bucket = 0; bucket < kRadixBuckets; ++bucket) {
    starts[bucket] = static_cast<uint32_t>(hist[bucket]);
  }
  starts[kRadixBuckets] = static_cast<uint32_t>(n);
  if (!sort_internal::ScatterChunks(
          grid, kRadixBuckets, hist,
          [input, scratch, shift](size_t i, uint64_t* h) {
            const K key = input.keys[i];
            const uint64_t pos = h[DigitOf(key, shift)]++;
            scratch.keys[pos] = key;
            scratch.oids[pos] = input.oids[i];
          },
          pool, ctx)) {
    return;
  }
  pool.ParallelForDynamic(
      kRadixBuckets, 1,
      [&](uint64_t first, uint64_t last, int) {
        for (size_t bucket = first; bucket < last; ++bucket) {
          const size_t begin = starts[bucket];
          const size_t len = starts[bucket + 1] - begin;
          if (len == 0) continue;
          RadixSortRows(top, PingPong<K>{scratch.keys + begin,
                                         scratch.oids + begin},
                        PingPong<K>{keys + begin, oids + begin}, len,
                        /*into_b=*/true);
        }
      },
      ctx);
}

}  // namespace

void RadixSortPairs16(uint16_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortPairsImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairs32(uint32_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortPairsImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairs64(uint64_t* keys, uint32_t* oids, size_t n,
                      int key_width, SortScratch& scratch) {
  RadixSortPairsImpl(keys, oids, n, key_width, scratch);
}

void RadixSortPairsBank(int bank, void* keys, uint32_t* oids, size_t n,
                        int key_width, SortScratch& scratch) {
  switch (bank) {
    case 16:
      RadixSortPairs16(static_cast<uint16_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    case 32:
      RadixSortPairs32(static_cast<uint32_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    case 64:
      RadixSortPairs64(static_cast<uint64_t*>(keys), oids, n, key_width,
                       scratch);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

void ParallelRadixSortPairsBank(int bank, void* keys, uint32_t* oids,
                                size_t n, int key_width, ThreadPool& pool,
                                std::vector<SortScratch>& scratches,
                                const ExecContext* ctx) {
  switch (bank) {
    case 16:
      ParallelRadixSortImpl(static_cast<uint16_t*>(keys), oids, n,
                            key_width, pool, scratches, ctx);
      break;
    case 32:
      ParallelRadixSortImpl(static_cast<uint32_t*>(keys), oids, n,
                            key_width, pool, scratches, ctx);
      break;
    case 64:
      ParallelRadixSortImpl(static_cast<uint64_t*>(keys), oids, n,
                            key_width, pool, scratches, ctx);
      break;
    default:
      MCSORT_CHECK(false && "unsupported bank size");
  }
}

}  // namespace mcsort
