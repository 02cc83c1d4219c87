#include "mcsort/storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"

namespace mcsort {

double ExpectedOccupiedCells(double cells, double balls) {
  if (cells <= 1.0) return balls > 0 ? 1.0 : 0.0;
  if (balls <= 0.0) return 0.0;
  // cells * (1 - (1 - 1/cells)^balls), computed stably via expm1/log1p.
  const double log_miss = balls * std::log1p(-1.0 / cells);
  return -cells * std::expm1(log_miss);
}

ColumnStats ColumnStats::Build(const EncodedColumn& column, int hist_bits) {
  return BuildSampled(column, column.size(), hist_bits);
}

ColumnStats ColumnStats::BuildSampled(const EncodedColumn& column,
                                      uint64_t max_rows, int hist_bits) {
  ColumnStats stats;
  stats.width_ = column.width();
  stats.row_count_ = column.size();
  stats.hist_bits_ = std::min(hist_bits, column.width());
  const size_t buckets = size_t{1} << stats.hist_bits_;
  stats.bucket_rows_.assign(buckets, 0);
  stats.bucket_distinct_.assign(buckets, 0);
  if (column.size() == 0 || max_rows == 0) return stats;

  const size_t n = column.size();
  const uint64_t stride = n <= max_rows ? 1 : (n + max_rows - 1) / max_rows;
  const uint64_t sampled = (n + stride - 1) / stride;
  const int width = stats.width_;
  const int shift = width - stats.hist_bits_;
  uint64_t* bucket_rows = stats.bucket_rows_.data();
  uint64_t* bucket_distinct = stats.bucket_distinct_.data();
  VisitCodes(column, [&](const auto* codes) {
    if (shift == 0) {
      // One code per bucket: a counting pass gives the row counts, and the
      // non-empty buckets are exactly the distinct codes.
      for (size_t i = 0; i < n; i += stride) ++bucket_rows[codes[i]];
      bool any = false;
      for (size_t b = 0; b < buckets; ++b) {
        if (bucket_rows[b] == 0) continue;
        bucket_distinct[b] = 1;
        ++stats.distinct_count_;
        if (!any) stats.min_code_ = b;
        stats.max_code_ = b;
        any = true;
      }
      return;
    }
    // One pass for min/max and the histogram; `first_seen(code)` is the
    // distinct-value test.
    Code lo = ~Code{0};
    Code hi = 0;
    const auto scan = [&](auto&& first_seen) {
      for (size_t i = 0; i < n; i += stride) {
        const Code code = codes[i];
        lo = std::min(lo, code);
        hi = std::max(hi, code);
        const size_t bucket = static_cast<size_t>(code >> shift);
        ++bucket_rows[bucket];
        if (first_seen(code)) ++bucket_distinct[bucket];
      }
    };
    if (width < 64 && (uint64_t{1} << width) <= 64 * sampled) {
      // Dense bitmap over the code domain, capped at 64 bits per sampled
      // row so wide sampled keys keep the hash set below.
      std::vector<uint64_t> seen(((uint64_t{1} << width) + 63) / 64, 0);
      scan([&seen](Code code) {
        uint64_t& word = seen[static_cast<size_t>(code >> 6)];
        const uint64_t bit = uint64_t{1} << (code & 63);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        return fresh;
      });
      for (size_t b = 0; b < buckets; ++b) {
        stats.distinct_count_ += bucket_distinct[b];
      }
    } else {
      std::unordered_set<Code> seen;
      seen.reserve(std::min<uint64_t>(n, max_rows) / 4 + 16);
      scan([&seen](Code code) { return seen.insert(code).second; });
      stats.distinct_count_ = seen.size();
    }
    stats.min_code_ = lo;
    stats.max_code_ = hi;
  });
  // Scale sampled row counts back to the full table.
  if (stride > 1) {
    const double scale =
        static_cast<double>(n) / static_cast<double>(sampled);
    for (auto& rows : stats.bucket_rows_) {
      rows = static_cast<uint64_t>(static_cast<double>(rows) * scale + 0.5);
    }
  }
  // Build the prefix-distinct cache eagerly so concurrent readers never
  // race on the lazy initialization.
  stats.EstimateDistinctPrefixes(0);
  return stats;
}

uint64_t ColumnStats::DistinctSketch() const {
  // FNV-1a over log2 buckets: insensitive to small per-bucket jitter,
  // sensitive to which buckets hold distinct mass and roughly how much.
  // Counts round to the nearest power of two (steps change at 2^(k+1/2)),
  // so the 2^(width - hist_bits) codes of a full bucket — what every dense
  // column wider than the histogram produces — sit mid-step, and deleting
  // a few values does not read as drift.
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](uint64_t v) {
    const long step =
        v == 0 ? 0 : 1 + std::lround(std::log2(static_cast<double>(v)));
    hash ^= static_cast<uint64_t>(step);
    hash *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(hist_bits_));
  for (uint64_t d : bucket_distinct_) mix(d);
  return hash;
}

ColumnStatsImage ColumnStats::ToImage() const {
  ColumnStatsImage image;
  image.row_count = row_count_;
  image.distinct_count = distinct_count_;
  image.min_code = min_code_;
  image.max_code = max_code_;
  image.width = width_;
  image.hist_bits = hist_bits_;
  image.bucket_rows = bucket_rows_;
  image.bucket_distinct = bucket_distinct_;
  return image;
}

ColumnStats ColumnStats::FromImage(const ColumnStatsImage& image) {
  ColumnStats stats;
  stats.row_count_ = image.row_count;
  stats.distinct_count_ = image.distinct_count;
  stats.min_code_ = image.min_code;
  stats.max_code_ = image.max_code;
  stats.width_ = image.width;
  stats.hist_bits_ = image.hist_bits;
  stats.bucket_rows_ = image.bucket_rows;
  stats.bucket_distinct_ = image.bucket_distinct;
  stats.EstimateDistinctPrefixes(0);
  return stats;
}

double ColumnStats::EstimateDistinctPrefixes(int a) const {
  MCSORT_CHECK(a >= 0);
  if (a > width_) a = width_;
  if (prefix_cache_.empty()) {
    prefix_cache_.resize(static_cast<size_t>(width_) + 1);
    for (int bits = 0; bits <= width_; ++bits) {
      prefix_cache_[static_cast<size_t>(bits)] = ComputeDistinctPrefixes(bits);
    }
  }
  return prefix_cache_[static_cast<size_t>(a)];
}

double ColumnStats::ComputeDistinctPrefixes(int a) const {
  if (row_count_ == 0) return 0.0;
  if (a == 0) return 1.0;
  if (a >= width_) return static_cast<double>(distinct_count_);
  if (a <= hist_bits_) {
    // Aggregate 2^(hist_bits - a) adjacent buckets per prefix and count the
    // nonempty groups — exact given the histogram.
    const size_t group = size_t{1} << (hist_bits_ - a);
    double nonempty = 0.0;
    for (size_t start = 0; start < bucket_rows_.size(); start += group) {
      uint64_t rows = 0;
      for (size_t j = 0; j < group; ++j) rows += bucket_rows_[start + j];
      if (rows > 0) nonempty += 1.0;
    }
    return nonempty;
  }
  // Each histogram bucket spans 2^(a - hist_bits) prefix cells; spread the
  // bucket's distinct values uniformly across them.
  const double cells = std::pow(2.0, a - hist_bits_);
  double total = 0.0;
  for (size_t b = 0; b < bucket_distinct_.size(); ++b) {
    if (bucket_distinct_[b] == 0) continue;
    total += ExpectedOccupiedCells(
        cells, static_cast<double>(bucket_distinct_[b]));
  }
  return total;
}

}  // namespace mcsort
