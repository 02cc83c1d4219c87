// Per-column statistics feeding the cost model (Sec. 4 takes "basic
// statistics about the data such as the number of tuples, the column width,
// and the value distribution of a column (e.g., a histogram)").
//
// Besides row/distinct counts we keep an equi-width histogram over the
// *code domain* [0, 2^w) with both row and distinct counts per bucket, so
// the plan search can estimate how many distinct values the top `a` bits of
// a column take — the quantity that drives N_group / N_sort / N_code for
// massaged plans (bit-borrowing changes `a`).
#ifndef MCSORT_STORAGE_STATISTICS_H_
#define MCSORT_STORAGE_STATISTICS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {

// Flattened, serializable view of a ColumnStats — what the snapshot format
// (io/snapshot.cc) writes and reads, so statistics computed at ingest time
// survive a restart without a rebuild pass over the column.
struct ColumnStatsImage {
  uint64_t row_count = 0;
  uint64_t distinct_count = 0;
  Code min_code = 0;
  Code max_code = 0;
  int32_t width = 0;
  int32_t hist_bits = 0;
  std::vector<uint64_t> bucket_rows;
  std::vector<uint64_t> bucket_distinct;
};

class ColumnStats {
 public:
  ColumnStats() = default;

  // Builds statistics with one typed pass over the column. Distinct
  // counts come from the histogram itself when each bucket is one code
  // (width <= hist_bits), from a dense bitmap when 2^width bits fit in 64
  // bits per row, and from a hash set otherwise. `hist_bits` caps the
  // histogram resolution; the histogram has 2^min(hist_bits, width)
  // buckets keyed by the code's top bits. `extendable` keeps what Extend
  // needs to tell a new code from a seen one: a column wider than the
  // histogram and at most 20 bits wide keeps its dense bitmap (at most
  // 128 KiB), built whatever the row count.
  static ColumnStats Build(const EncodedColumn& column, int hist_bits = 12,
                           bool extendable = false);

  // The statistics of `column` — whose first row_count() codes are the
  // ones these stats describe, at the same width — computed from its rows
  // [row_count(), column.size()) alone. Equal, field by field, to
  // Build(column). Returns false when these stats cannot be extended:
  // sampled, restored from an image, or wider than the histogram without a
  // seen-code bitmap.
  bool Extend(const EncodedColumn& column, ColumnStats* out) const;
  bool extendable() const {
    return exact_ && (hist_bits_ == width_ || seen_ != nullptr);
  }

  // Like Build but over at most `max_rows` stride-sampled rows, with row
  // counts scaled back to the full size. Distinct counts are the sample's
  // (a lower bound) — good enough for plan search, and O(sample) instead
  // of O(n) hashing per planning call.
  static ColumnStats BuildSampled(const EncodedColumn& column,
                                  uint64_t max_rows, int hist_bits = 12);

  uint64_t row_count() const { return row_count_; }
  uint64_t distinct_count() const { return distinct_count_; }
  Code min_code() const { return min_code_; }
  Code max_code() const { return max_code_; }
  int width() const { return width_; }

  // Expected number of distinct values of the top `a` bits of the column
  // (a in [0, width]): exact (nonempty aggregated buckets) for a <= the
  // histogram resolution, balls-into-bins extrapolation within buckets
  // beyond it. a == 0 returns 1; a >= width returns distinct_count().
  // O(1) after the first call per width (plan search calls this in hot
  // loops); the table is built lazily.
  double EstimateDistinctPrefixes(int a) const;

  // Order-sensitive hash of the per-bucket distinct counts, each rounded
  // to the nearest power of two.
  // The plan cache folds it into its statistics fingerprint: the kernel
  // router keys on the distinct *distribution* (it decides counting vs.
  // merge rounds), so a reshaped distribution must read as drift even when
  // the total row/distinct counts happen to match. Computed once when the
  // stats are built.
  uint64_t DistinctSketch() const { return distinct_sketch_; }

  // Snapshot (de)serialization support. FromImage pre-warms the prefix
  // cache like BuildSampled does, so restored stats stay race-free under
  // concurrent readers.
  ColumnStatsImage ToImage() const;
  static ColumnStats FromImage(const ColumnStatsImage& image);

  // Heap bytes held: the two histograms and the seen-code bitmap.
  size_t MemoryBytes() const;

 private:
  static ColumnStats BuildImpl(const EncodedColumn& column, uint64_t max_rows,
                               int hist_bits, bool extendable);
  // Fills the prefix cache and the sketch from the histogram.
  void Finish();
  double ComputeDistinctPrefixes(int a) const;
  uint64_t ComputeDistinctSketch() const;
  uint64_t row_count_ = 0;
  uint64_t distinct_count_ = 0;
  Code min_code_ = 0;
  Code max_code_ = 0;
  int width_ = 0;
  int hist_bits_ = 0;  // log2(#buckets)
  std::vector<uint64_t> bucket_rows_;
  std::vector<uint64_t> bucket_distinct_;
  uint64_t distinct_sketch_ = 0;
  // Counts every row (not sampled), so Extend can add rows to it.
  bool exact_ = false;
  // Bit c set iff code c occurs; shared with the stats extended from these
  // and copied only when an appended code is new.
  std::shared_ptr<const std::vector<uint64_t>> seen_;
  // Lazily-built cache: prefix_cache_[a] = EstimateDistinctPrefixes(a).
  mutable std::vector<double> prefix_cache_;
};

// Expected number of nonempty cells when `balls` items are dropped
// uniformly into `cells` cells: cells * (1 - (1 - 1/cells)^balls).
double ExpectedOccupiedCells(double cells, double balls);

}  // namespace mcsort

#endif  // MCSORT_STORAGE_STATISTICS_H_
