#include "mcsort/storage/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"

namespace mcsort {
namespace {

// Widest column whose extendable stats keep a seen-code bitmap.
constexpr int kMaxSeenWidth = 20;

}  // namespace

double ExpectedOccupiedCells(double cells, double balls) {
  if (cells <= 1.0) return balls > 0 ? 1.0 : 0.0;
  if (balls <= 0.0) return 0.0;
  // cells * (1 - (1 - 1/cells)^balls), computed stably via expm1/log1p.
  const double log_miss = balls * std::log1p(-1.0 / cells);
  return -cells * std::expm1(log_miss);
}

ColumnStats ColumnStats::Build(const EncodedColumn& column, int hist_bits,
                               bool extendable) {
  return BuildImpl(column, column.size(), hist_bits, extendable);
}

ColumnStats ColumnStats::BuildSampled(const EncodedColumn& column,
                                      uint64_t max_rows, int hist_bits) {
  return BuildImpl(column, max_rows, hist_bits, /*extendable=*/false);
}

ColumnStats ColumnStats::BuildImpl(const EncodedColumn& column,
                                   uint64_t max_rows, int hist_bits,
                                   bool extendable) {
  ColumnStats stats;
  stats.width_ = column.width();
  stats.row_count_ = column.size();
  stats.hist_bits_ = std::min(hist_bits, column.width());
  const size_t buckets = size_t{1} << stats.hist_bits_;
  stats.bucket_rows_.assign(buckets, 0);
  stats.bucket_distinct_.assign(buckets, 0);
  const size_t n = column.size();
  const int width = stats.width_;
  const int shift = width - stats.hist_bits_;
  stats.exact_ = n <= max_rows;
  const bool keep_seen =
      extendable && stats.exact_ && shift > 0 && width <= kMaxSeenWidth;
  const size_t seen_words = ((uint64_t{1} << std::min(width, 63)) + 63) / 64;
  if (n == 0 || max_rows == 0) {
    if (keep_seen) {
      stats.seen_ = std::make_shared<std::vector<uint64_t>>(seen_words, 0);
    }
    stats.Finish();
    return stats;
  }

  const uint64_t stride = n <= max_rows ? 1 : (n + max_rows - 1) / max_rows;
  const uint64_t sampled = (n + stride - 1) / stride;
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
    if (keep_seen ||
        (width < 64 && (uint64_t{1} << width) <= 64 * sampled)) {
      // Dense bitmap over the code domain, capped at 64 bits per sampled
      // row so wide sampled keys keep the hash set below.
      auto seen = std::make_shared<std::vector<uint64_t>>(seen_words, 0);
      uint64_t* words = seen->data();
      scan([words](Code code) {
        uint64_t& word = words[static_cast<size_t>(code >> 6)];
        const uint64_t bit = uint64_t{1} << (code & 63);
        const bool fresh = (word & bit) == 0;
        word |= bit;
        return fresh;
      });
      for (size_t b = 0; b < buckets; ++b) {
        stats.distinct_count_ += bucket_distinct[b];
      }
      if (keep_seen) stats.seen_ = std::move(seen);
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
  stats.Finish();
  return stats;
}

bool ColumnStats::Extend(const EncodedColumn& column, ColumnStats* out) const {
  if (!extendable() || column.width() != width_ ||
      column.size() < row_count_) {
    return false;
  }
  ColumnStats next = *this;
  next.row_count_ = column.size();
  const int shift = width_ - hist_bits_;
  // next.seen_ once copied: the bitmap is shared until a code is new.
  std::shared_ptr<std::vector<uint64_t>> own;
  bool any = row_count_ > 0;
  VisitCodes(column, [&](const auto* codes) {
    for (size_t i = row_count_; i < column.size(); ++i) {
      const Code code = codes[i];
      next.min_code_ = any ? std::min(next.min_code_, code) : code;
      next.max_code_ = any ? std::max(next.max_code_, code) : code;
      any = true;
      const size_t bucket = static_cast<size_t>(code >> shift);
      bool fresh = ++next.bucket_rows_[bucket] == 1;
      if (shift > 0) {
        const size_t index = static_cast<size_t>(code >> 6);
        const uint64_t bit = uint64_t{1} << (code & 63);
        fresh = ((*next.seen_)[index] & bit) == 0;
        if (fresh) {
          if (own == nullptr) {
            own = std::make_shared<std::vector<uint64_t>>(*next.seen_);
            next.seen_ = own;
          }
          (*own)[index] |= bit;
        }
      }
      if (fresh) {
        ++next.bucket_distinct_[bucket];
        ++next.distinct_count_;
      }
    }
  });
  next.Finish();
  *out = std::move(next);
  return true;
}

void ColumnStats::Finish() {
  // Build the prefix-distinct cache eagerly so concurrent readers never
  // race on the lazy initialization.
  prefix_cache_.clear();
  EstimateDistinctPrefixes(0);
  distinct_sketch_ = ComputeDistinctSketch();
}

size_t ColumnStats::MemoryBytes() const {
  return (bucket_rows_.size() + bucket_distinct_.size() +
          (seen_ != nullptr ? seen_->size() : 0)) *
         sizeof(uint64_t);
}

uint64_t ColumnStats::ComputeDistinctSketch() const {
  // FNV-1a over log2 buckets: insensitive to small per-bucket jitter,
  // sensitive to which buckets hold distinct mass and roughly how much.
  // Counts round to the nearest power of two (steps change at 2^(k+1/2)),
  // so the 2^(width - hist_bits) codes of a full bucket — what every dense
  // column wider than the histogram produces — sit mid-step, and deleting
  // a few values does not read as drift.
  uint64_t hash = 1469598103934665603ull;
  // Neighbouring buckets mostly hold equal counts; reuse the last step.
  uint64_t last_v = 0;
  long last_step = 0;
  const auto mix = [&](uint64_t v) {
    if (v != last_v) {
      last_v = v;
      last_step = 1 + std::lround(std::log2(static_cast<double>(v)));
    }
    const long step = v == 0 ? 0 : last_step;
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
  stats.Finish();
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
  // Neighbouring buckets mostly hold equal counts; reuse the last term.
  uint64_t last_d = 0;
  double last_cells = 0.0;
  for (size_t b = 0; b < bucket_distinct_.size(); ++b) {
    const uint64_t d = bucket_distinct_[b];
    if (d == 0) continue;
    if (d != last_d) {
      last_d = d;
      last_cells = ExpectedOccupiedCells(cells, static_cast<double>(d));
    }
    total += last_cells;
  }
  return total;
}

}  // namespace mcsort
