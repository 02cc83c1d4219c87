// The typed bulk builders every merged image and every compaction pays
// for — BuildMergedTable, ColumnStats::BuildSampled, ByteSliceColumn::Build
// and BitWeavingColumn::Build — checked byte for byte against per-element
// reference builders (Get/Set per code, the original formulation), kept
// here because the served path no longer runs them.
//
// Coverage: code widths 1, 8, 9, 16, 17, 32, 33 and 64 (all three
// physical types); base tombstones at oid 0, at the last oid, adjacent and
// duplicated; zero live rows; a lowered domain base; widening across
// u16 -> u32 and u32 -> u64; dictionary growth with overflow values below
// and above the base dictionary; sampled stats on both sides of the
// bitmap guard. Also: the snapshot files of a compacted table equal files
// written from the reference layouts, and the typed DML predicate match
// agrees with a per-row compare.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/aligned_buffer.h"
#include "mcsort/common/bits.h"
#include "mcsort/common/random.h"
#include "mcsort/delta/dml.h"
#include "mcsort/delta/merge_scan.h"
#include "mcsort/delta/table_version.h"
#include "mcsort/io/fs_util.h"
#include "mcsort/io/snapshot.h"
#include "mcsort/storage/bitweaving.h"
#include "mcsort/storage/byteslice.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/statistics.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

using delta::DeltaSnapshot;
using delta::DmlCommand;
using delta::DmlCompareOp;
using delta::DmlOp;
using delta::DmlValue;
using delta::kNoOid;
using delta::MergedTable;

constexpr int kWidths[] = {1, 8, 9, 16, 17, 32, 33, 64};

// ---------------------------------------------------------------------------
// Per-element reference builders
// ---------------------------------------------------------------------------

ColumnStatsImage ReferenceStats(const EncodedColumn& column,
                                uint64_t max_rows, int hist_bits = 12) {
  ColumnStatsImage stats;
  stats.width = column.width();
  stats.row_count = column.size();
  stats.hist_bits = std::min(hist_bits, column.width());
  const size_t buckets = size_t{1} << stats.hist_bits;
  stats.bucket_rows.assign(buckets, 0);
  stats.bucket_distinct.assign(buckets, 0);
  if (column.size() == 0 || max_rows == 0) return stats;

  const uint64_t stride =
      column.size() <= max_rows ? 1 : (column.size() + max_rows - 1) / max_rows;
  stats.min_code = ~Code{0};
  stats.max_code = 0;
  const int shift = stats.width - stats.hist_bits;
  std::unordered_set<Code> seen;
  uint64_t sampled = 0;
  for (size_t i = 0; i < column.size(); i += stride) {
    const Code code = column.Get(i);
    stats.min_code = std::min(stats.min_code, code);
    stats.max_code = std::max(stats.max_code, code);
    const size_t bucket = static_cast<size_t>(code >> shift);
    ++stats.bucket_rows[bucket];
    if (seen.insert(code).second) ++stats.bucket_distinct[bucket];
    ++sampled;
  }
  if (stride > 1 && sampled > 0) {
    const double scale =
        static_cast<double>(column.size()) / static_cast<double>(sampled);
    for (auto& rows : stats.bucket_rows) {
      rows = static_cast<uint64_t>(static_cast<double>(rows) * scale + 0.5);
    }
  }
  stats.distinct_count = seen.size();
  return stats;
}

std::vector<AlignedBuffer<uint8_t>> ReferenceByteSlices(
    const EncodedColumn& column) {
  const int num_slices = (column.width() + 7) / 8;
  const int padding = 8 * num_slices - column.width();
  std::vector<AlignedBuffer<uint8_t>> slices(static_cast<size_t>(num_slices));
  for (auto& slice : slices) {
    slice.Reset(ByteSliceColumn::slice_bytes(column.size()));
    slice.Fill(0);
  }
  for (size_t i = 0; i < column.size(); ++i) {
    const Code padded = column.Get(i) << padding;
    for (int j = 0; j < num_slices; ++j) {
      slices[static_cast<size_t>(j)][i] =
          static_cast<uint8_t>(padded >> (8 * (num_slices - 1 - j)));
    }
  }
  return slices;
}

std::vector<AlignedBuffer<uint64_t>> ReferenceBitPlanes(
    const EncodedColumn& column) {
  const int width = column.width();
  std::vector<AlignedBuffer<uint64_t>> planes(static_cast<size_t>(width));
  for (auto& plane : planes) {
    plane.Reset(RoundUp(column.size(), 64) / 64);
    plane.Fill(0);
  }
  for (size_t i = 0; i < column.size(); ++i) {
    const Code code = column.Get(i);
    for (int j = 0; j < width; ++j) {
      if ((code >> (width - 1 - j)) & 1) {
        planes[static_cast<size_t>(j)][i >> 6] |= uint64_t{1} << (i & 63);
      }
    }
  }
  return planes;
}

struct ReferenceDictMerge {
  std::vector<std::string> merged;
  std::vector<Code> new_code_of_dict;
  std::vector<Code> new_code_of_ovf;
};

ReferenceDictMerge ReferenceMergeDictionary(
    const StringDictionary& dict, const std::vector<std::string>& overflow) {
  ReferenceDictMerge out;
  const std::vector<std::string>& base_values = dict.values();
  std::vector<size_t> ovf_order(overflow.size());
  std::iota(ovf_order.begin(), ovf_order.end(), 0);
  std::sort(ovf_order.begin(), ovf_order.end(),
            [&](size_t a, size_t b) { return overflow[a] < overflow[b]; });
  out.new_code_of_dict.resize(base_values.size());
  out.new_code_of_ovf.resize(overflow.size());
  size_t i = 0, j = 0;
  while (i < base_values.size() || j < ovf_order.size()) {
    const Code next = static_cast<Code>(out.merged.size());
    if (j >= ovf_order.size() ||
        (i < base_values.size() && base_values[i] < overflow[ovf_order[j]])) {
      out.new_code_of_dict[i] = next;
      out.merged.push_back(base_values[i++]);
    } else {
      out.new_code_of_ovf[ovf_order[j]] = next;
      out.merged.push_back(overflow[ovf_order[j++]]);
    }
  }
  return out;
}

MergedTable ReferenceMergedTable(const Table& base, const DeltaSnapshot& snap) {
  MergedTable out;
  const std::vector<std::string>& names = base.column_names();
  const size_t n_base = base.row_count();
  const size_t n_delta = snap.rows.size();
  out.new_oid_of_base.assign(n_base, kNoOid);
  out.new_oid_of_delta.assign(n_delta, kNoOid);
  std::vector<uint8_t> base_dead(n_base, 0);
  for (uint32_t oid : snap.base_tombstones) {
    if (oid < n_base) base_dead[oid] = 1;
  }
  uint32_t next_oid = 0;
  for (size_t oid = 0; oid < n_base; ++oid) {
    if (!base_dead[oid]) out.new_oid_of_base[oid] = next_oid++;
  }
  for (size_t r = 0; r < n_delta; ++r) {
    if (snap.row_dead.size() <= r || !snap.row_dead[r]) {
      out.new_oid_of_delta[r] = next_oid++;
    }
  }
  const size_t n_live = next_oid;

  out.table = std::make_shared<Table>(n_live);
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const EncodedColumn& old_col = base.column(name);
    EncodedColumn merged_col;
    if (base.HasDictionary(name)) {
      static const std::vector<std::string> kNoOverflow;
      ReferenceDictMerge dm = ReferenceMergeDictionary(
          base.dictionary(name),
          c < snap.overflow.size() ? snap.overflow[c] : kNoOverflow);
      merged_col.Reset(
          std::max(1, BitsForCount(static_cast<uint64_t>(dm.merged.size()))),
          n_live);
      for (size_t oid = 0; oid < n_base; ++oid) {
        if (out.new_oid_of_base[oid] == kNoOid) continue;
        merged_col.Set(out.new_oid_of_base[oid],
                       dm.new_code_of_dict[old_col.Get(oid)]);
      }
      for (size_t r = 0; r < n_delta; ++r) {
        if (out.new_oid_of_delta[r] == kNoOid) continue;
        const size_t id = static_cast<size_t>(snap.rows[r][c]);
        merged_col.Set(out.new_oid_of_delta[r],
                       id < dm.new_code_of_dict.size()
                           ? dm.new_code_of_dict[id]
                           : dm.new_code_of_ovf[id - dm.new_code_of_dict.size()]);
      }
      out.table->AddColumnParts(
          name, std::move(merged_col),
          std::make_unique<StringDictionary>(
              StringDictionary::FromSorted(std::move(dm.merged))),
          0);
      continue;
    }
    const int64_t old_base = base.domain_base(name);
    uint64_t max_base_code = 0;
    for (size_t oid = 0; oid < n_base; ++oid) {
      if (out.new_oid_of_base[oid] == kNoOid) continue;
      max_base_code = std::max<uint64_t>(max_base_code, old_col.Get(oid));
    }
    int64_t new_base = old_base;
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      new_base = std::min(new_base, snap.rows[r][c]);
    }
    const uint64_t shift =
        static_cast<uint64_t>(old_base) - static_cast<uint64_t>(new_base);
    uint64_t max_rel = max_base_code + shift;
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      max_rel = std::max(max_rel, static_cast<uint64_t>(snap.rows[r][c]) -
                                      static_cast<uint64_t>(new_base));
    }
    merged_col.Reset(std::max(1, BitsForValue(max_rel)), n_live);
    for (size_t oid = 0; oid < n_base; ++oid) {
      if (out.new_oid_of_base[oid] == kNoOid) continue;
      merged_col.Set(out.new_oid_of_base[oid], old_col.Get(oid) + shift);
    }
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      merged_col.Set(out.new_oid_of_delta[r],
                     static_cast<uint64_t>(snap.rows[r][c]) -
                         static_cast<uint64_t>(new_base));
    }
    out.table->AddColumnParts(name, std::move(merged_col), nullptr, new_base);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Comparison helpers and inputs
// ---------------------------------------------------------------------------

void ExpectSameStats(const ColumnStatsImage& got, const ColumnStatsImage& want,
                     const std::string& label) {
  EXPECT_EQ(got.row_count, want.row_count) << label;
  EXPECT_EQ(got.distinct_count, want.distinct_count) << label;
  EXPECT_EQ(got.min_code, want.min_code) << label;
  EXPECT_EQ(got.max_code, want.max_code) << label;
  EXPECT_EQ(got.width, want.width) << label;
  EXPECT_EQ(got.hist_bits, want.hist_bits) << label;
  EXPECT_EQ(got.bucket_rows, want.bucket_rows) << label;
  EXPECT_EQ(got.bucket_distinct, want.bucket_distinct) << label;
}

void ExpectSameCodes(const EncodedColumn& got, const EncodedColumn& want,
                     const std::string& label) {
  ASSERT_EQ(got.width(), want.width()) << label;
  ASSERT_EQ(got.type(), want.type()) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  if (got.size() == 0) return;
  EXPECT_EQ(std::memcmp(got.raw_data(), want.raw_data(), got.byte_size()), 0)
      << label;
}

void ExpectSameMerge(const MergedTable& got, const MergedTable& want,
                     const std::string& label) {
  EXPECT_EQ(got.new_oid_of_base, want.new_oid_of_base) << label;
  EXPECT_EQ(got.new_oid_of_delta, want.new_oid_of_delta) << label;
  const Table& a = *got.table;
  const Table& b = *want.table;
  ASSERT_EQ(a.row_count(), b.row_count()) << label;
  ASSERT_EQ(a.column_names(), b.column_names()) << label;
  for (const std::string& name : a.column_names()) {
    const std::string where = label + " column " + name;
    ExpectSameCodes(a.column(name), b.column(name), where);
    EXPECT_EQ(a.domain_base(name), b.domain_base(name)) << where;
    ASSERT_EQ(a.HasDictionary(name), b.HasDictionary(name)) << where;
    if (a.HasDictionary(name)) {
      EXPECT_EQ(a.dictionary(name).values(), b.dictionary(name).values())
          << where;
    }
  }
}

// Random w-bit codes. `distinct` > 0 draws them from that many values, so
// the distinct-count paths see duplicates.
EncodedColumn RandomColumn(int width, size_t n, uint64_t seed,
                           size_t distinct = 0) {
  Rng rng(seed);
  std::vector<Code> pool(distinct);
  for (Code& code : pool) code = rng.Next() & LowBitsMask(width);
  EncodedColumn column(width, n);
  for (size_t i = 0; i < n; ++i) {
    column.Set(i, distinct > 0 ? pool[rng.NextBounded(distinct)]
                               : rng.Next() & LowBitsMask(width));
  }
  return column;
}

std::string NumericName(int width) { return "w" + std::to_string(width); }

const std::vector<std::string>& Vocab() {
  static const std::vector<std::string> kVocab = {"delta", "golf",  "kilo",
                                                  "mike",  "oscar", "tango"};
  return kVocab;
}

constexpr int64_t kDomainBase = 1000;

// One numeric column per width (domain base 1000, except the 64-bit one)
// plus dictionary column "s". Every numeric code is below 2^(w-1) except
// the last row's, which is the width's maximum: tombstoning that row must
// narrow the merged column.
Table MergeBase(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table table(n);
  for (int width : kWidths) {
    EncodedColumn column(width, n);
    for (size_t i = 0; i < n; ++i) {
      column.Set(i, i + 1 == n ? LowBitsMask(width)
                               : rng.Next() & LowBitsMask(width - 1));
    }
    table.AddColumnParts(NumericName(width), std::move(column), nullptr,
                         width == 64 ? 0 : kDomainBase);
  }
  auto dict =
      std::make_unique<StringDictionary>(StringDictionary::FromSorted(Vocab()));
  EncodedColumn s(dict->code_width(), n);
  for (size_t i = 0; i < n; ++i) s.Set(i, rng.NextBounded(Vocab().size()));
  table.AddColumnParts("s", std::move(s), std::move(dict), 0);
  return table;
}

// A delta row in stored form: `natives` per numeric column (the 64-bit one
// gets 7), then dictionary id `id` for "s".
std::vector<int64_t> DeltaRow(int64_t native, int64_t id) {
  std::vector<int64_t> row;
  for (int width : kWidths) row.push_back(width == 64 ? 7 : native);
  row.push_back(id);
  return row;
}

void ExpectMergeMatchesReference(const Table& base, DeltaSnapshot snap,
                                 const std::string& label) {
  snap.overflow.resize(base.column_names().size());
  ExpectSameMerge(delta::BuildMergedTable(base, snap),
                  ReferenceMergedTable(base, snap), label);
}

// ---------------------------------------------------------------------------
// Stats, ByteSlice, BitWeaving
// ---------------------------------------------------------------------------

TEST(BuildersTest, ExactStatsMatchReference) {
  for (int width : kWidths) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{1000}, size_t{5000}}) {
      for (size_t distinct : {size_t{0}, size_t{37}}) {
        const EncodedColumn column = RandomColumn(width, n, 11 + width, distinct);
        const std::string label = "w" + std::to_string(width) + " n" +
                                  std::to_string(n) + " d" +
                                  std::to_string(distinct);
        ExpectSameStats(ColumnStats::Build(column).ToImage(),
                        ReferenceStats(column, column.size()), label);
        // A coarser histogram moves every width onto the bitmap/hash paths.
        ExpectSameStats(ColumnStats::BuildSampled(column, n, 4).ToImage(),
                        ReferenceStats(column, n, 4), label + " h4");
      }
    }
  }
}

TEST(BuildersTest, DenseLowWidthStatsMatchReference) {
  // Every code of a 12-bit domain present: the counting path's min, max
  // and distinct counts come from the histogram alone.
  EncodedColumn column(12, 3 * 4096);
  for (size_t i = 0; i < column.size(); ++i) column.Set(i, (i * 7) % 4096);
  ExpectSameStats(ColumnStats::Build(column).ToImage(),
                  ReferenceStats(column, column.size()), "dense w12");
}

TEST(BuildersTest, SampledStatsMatchReferenceAcrossBitmapGuard) {
  // 4096 rows sampled at stride 2 = 2048 rows = 2^17 bitmap bits at 64 bits
  // per row: width 17 takes the bitmap, width 18 the hash set.
  for (int width : {9, 16, 17, 18, 24, 33}) {
    for (size_t distinct : {size_t{0}, size_t{300}}) {
      const EncodedColumn column = RandomColumn(width, 4096, 5 + width, distinct);
      const std::string label =
          "w" + std::to_string(width) + " d" + std::to_string(distinct);
      ExpectSameStats(ColumnStats::BuildSampled(column, 2048).ToImage(),
                      ReferenceStats(column, 2048), label);
      // Uneven stride (7) and a sample that does not divide the column.
      ExpectSameStats(ColumnStats::BuildSampled(column, 600).ToImage(),
                      ReferenceStats(column, 600), label + " s7");
    }
  }
}

TEST(BuildersTest, ByteSliceMatchesReference) {
  for (int width : kWidths) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{31}, size_t{32}, size_t{33},
                     size_t{1000}}) {
      const EncodedColumn column = RandomColumn(width, n, 3 + width);
      const ByteSliceColumn got = ByteSliceColumn::Build(column);
      const auto want = ReferenceByteSlices(column);
      const std::string label =
          "w" + std::to_string(width) + " n" + std::to_string(n);
      ASSERT_EQ(got.num_slices(), static_cast<int>(want.size())) << label;
      const size_t bytes = ByteSliceColumn::slice_bytes(n);
      for (int j = 0; j < got.num_slices(); ++j) {
        if (bytes == 0) continue;
        EXPECT_EQ(std::memcmp(got.slice(j), want[static_cast<size_t>(j)].data(),
                              bytes),
                  0)
            << label << " slice " << j;
      }
    }
  }
}

TEST(BuildersTest, BitWeavingMatchesReference) {
  for (int width : kWidths) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64}, size_t{65},
                     size_t{1000}}) {
      const EncodedColumn column = RandomColumn(width, n, 7 + width);
      const BitWeavingColumn got = BitWeavingColumn::Build(column);
      const auto want = ReferenceBitPlanes(column);
      const std::string label =
          "w" + std::to_string(width) + " n" + std::to_string(n);
      ASSERT_EQ(got.words_per_plane(), RoundUp(n, 64) / 64) << label;
      for (int j = 0; j < width; ++j) {
        for (size_t g = 0; g < got.words_per_plane(); ++g) {
          ASSERT_EQ(got.plane(j)[g], want[static_cast<size_t>(j)][g])
              << label << " plane " << j << " word " << g;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Merge-at-scan
// ---------------------------------------------------------------------------

TEST(BuildersTest, MergedTableMatchesReferenceWithTombstones) {
  const size_t n = 300;
  const Table base = MergeBase(n, 41);
  DeltaSnapshot snap;
  // Oid 0, the last oid (which holds every column's maximum), an adjacent
  // run, a duplicate, and an oid past the end, in arrival order.
  snap.base_tombstones = {9, 0, 5, 6, 7, static_cast<uint32_t>(n - 1), 9, 5,
                          static_cast<uint32_t>(n + 3)};
  snap.rows = {DeltaRow(kDomainBase + 1, 2), DeltaRow(kDomainBase + 3, 0),
               DeltaRow(kDomainBase, 5)};
  snap.row_dead = {0, 1, 0};
  ExpectMergeMatchesReference(base, snap, "tombstones");

  // No tombstones at all: every numeric column is a straight copy.
  DeltaSnapshot inserts;
  inserts.rows = {DeltaRow(kDomainBase + 2, 1)};
  ExpectMergeMatchesReference(base, inserts, "inserts only");
}

TEST(BuildersTest, MergedTableMatchesReferenceWithZeroLiveRows) {
  const size_t n = 200;
  const Table base = MergeBase(n, 43);
  DeltaSnapshot snap;
  for (size_t oid = n; oid-- > 0;) {
    snap.base_tombstones.push_back(static_cast<uint32_t>(oid));
  }
  snap.rows = {DeltaRow(kDomainBase + 1, 1), DeltaRow(kDomainBase + 2, 2)};
  snap.row_dead = {1, 1};
  ExpectMergeMatchesReference(base, snap, "zero live");

  // An empty base with one live delta row.
  ExpectMergeMatchesReference(MergeBase(0, 44),
                              DeltaSnapshot{{DeltaRow(kDomainBase - 5, 3)},
                                            {0}, {}, {}, 0, 0, 0, 0},
                              "empty base");
}

TEST(BuildersTest, MergedTableMatchesReferenceWhenBaseLowersAndWidens) {
  const Table base = MergeBase(300, 47);
  // A native 10 below the domain base shifts every code up: the 16- and
  // 32-bit columns (max code 2^w - 1) widen to u32 and u64.
  DeltaSnapshot lowered;
  lowered.rows = {DeltaRow(kDomainBase - 10, 1)};
  lowered.base_tombstones = {3};
  ExpectMergeMatchesReference(base, lowered, "lowered base");

  // Widening without a shift: natives above the width's range.
  for (int width : {16, 32}) {
    DeltaSnapshot widened;
    widened.rows = {DeltaRow(kDomainBase + (int64_t{1} << width), 1)};
    ExpectMergeMatchesReference(base, widened,
                                "widened past " + std::to_string(width));
  }
}

TEST(BuildersTest, MergedTableMatchesReferenceOnDictionaryGrowth) {
  const Table base = MergeBase(300, 53);
  const size_t s_col = base.column_names().size() - 1;
  const int64_t dict_size = static_cast<int64_t>(Vocab().size());

  // Overflow values sorting below and above the base dictionary: the
  // remap is not the identity.
  DeltaSnapshot both;
  both.overflow.resize(base.column_names().size());
  both.overflow[s_col] = {"zulu", "alpha"};
  both.rows = {DeltaRow(kDomainBase, dict_size), DeltaRow(kDomainBase, 2),
               DeltaRow(kDomainBase, dict_size + 1)};
  both.base_tombstones = {0, 1};
  ExpectMergeMatchesReference(base, both, "overflow below and above");

  // Only above, growing 6 -> 9 values (3 -> 4 bits): identity remap on
  // an unchanged physical type.
  DeltaSnapshot above;
  above.overflow.resize(base.column_names().size());
  above.overflow[s_col] = {"whiskey", "yankee", "zulu"};
  above.rows = {DeltaRow(kDomainBase, dict_size + 2)};
  ExpectMergeMatchesReference(base, above, "overflow above");

  // Identity remap across u16 -> u32: 2^16 base values plus one above.
  std::vector<std::string> values(size_t{1} << 16);
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%05zu", i);
    values[i] = buf;
  }
  auto dict = std::make_unique<StringDictionary>(
      StringDictionary::FromSorted(values));
  Table wide(500);
  wide.AddColumnParts("s", RandomColumn(16, 500, 59), std::move(dict), 0);
  DeltaSnapshot grown;
  grown.overflow = {{"zz"}};
  grown.rows = {{int64_t{1} << 16}, {17}};
  grown.base_tombstones = {499, 0};
  ExpectMergeMatchesReference(wide, grown, "dictionary u16 -> u32");
}

// ---------------------------------------------------------------------------
// Compaction output and residency
// ---------------------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/mcsort_builders_test_XXXXXX";
    path_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!path_.empty()) {
      const std::string cmd = "rm -rf '" + path_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DmlCommand InsertRow(int64_t native, const std::string& s) {
  DmlCommand cmd;
  cmd.op = DmlOp::kInsert;
  cmd.table = "t";
  std::vector<DmlValue> row;
  for (int width : kWidths) {
    cmd.columns.push_back(NumericName(width));
    row.push_back(DmlValue::Int(width == 64 ? 7 : native));
  }
  cmd.columns.push_back("s");
  row.push_back(DmlValue::String(s));
  cmd.rows = {std::move(row)};
  return cmd;
}

DmlCommand DeleteWhere(const std::string& column, DmlCompareOp op,
                       DmlValue value) {
  DmlCommand cmd;
  cmd.op = DmlOp::kDelete;
  cmd.table = "t";
  cmd.has_predicate = true;
  cmd.predicate = {column, op, std::move(value)};
  return cmd;
}

TEST(BuildersTest, CompactedSnapshotMatchesReferenceLayouts) {
  delta::TableVersion version(std::make_shared<Table>(MergeBase(700, 61)));
  ASSERT_TRUE(version.Apply(InsertRow(kDomainBase - 4, "alpha")).ok());
  ASSERT_TRUE(version.Apply(InsertRow(kDomainBase + 9, "kilo")).ok());
  // Drops the base row holding w9's maximum; the live insert below the
  // domain base lowers it.
  ASSERT_TRUE(
      version.Apply(DeleteWhere("w9", DmlCompareOp::kGe,
                                DmlValue::Int(kDomainBase + 200)))
          .ok());

  // The compactor's path: merge, then save (stats and ByteSlice cached on
  // the merged table).
  const delta::TableVersion::CompactionJob job = version.BeginCompaction();
  const MergedTable merged = delta::BuildMergedTable(*job.base, job.snap);
  TempDir tmp;
  ASSERT_TRUE(SaveTableSnapshot(*merged.table, tmp.path() + "/got").ok());

  // The same table with every layout installed from the references.
  const MergedTable ref = ReferenceMergedTable(*job.base, job.snap);
  for (const std::string& name : ref.table->column_names()) {
    const EncodedColumn& column = ref.table->column(name);
    ref.table->SetStats(name, ColumnStats::FromImage(
                                  ReferenceStats(column, column.size())));
    ref.table->SetByteSlice(
        name, ByteSliceColumn::FromParts(column.width(), column.size(),
                                         ReferenceByteSlices(column)));
  }
  ASSERT_TRUE(SaveTableSnapshot(*ref.table, tmp.path() + "/want").ok());

  std::vector<std::string> files = {kSnapshotManifestFile};
  for (size_t i = 0; i < ref.table->column_names().size(); ++i) {
    files.push_back(std::to_string(i) + ".col");
  }
  for (const std::string& file : files) {
    std::string got, want;
    ASSERT_TRUE(ReadFileToString(tmp.path() + "/got/" + file, &got).ok());
    ASSERT_TRUE(ReadFileToString(tmp.path() + "/want/" + file, &want).ok());
    EXPECT_TRUE(got == want) << file << " differs";
  }
}

// ---------------------------------------------------------------------------
// DML predicate match
// ---------------------------------------------------------------------------

bool Compare(DmlCompareOp op, int a, int b) {
  switch (op) {
    case DmlCompareOp::kEq: return a == b;
    case DmlCompareOp::kNe: return a != b;
    case DmlCompareOp::kLt: return a < b;
    case DmlCompareOp::kLe: return a <= b;
    case DmlCompareOp::kGt: return a > b;
    case DmlCompareOp::kGe: return a >= b;
  }
  return false;
}

TEST(BuildersTest, TypedPredicateMatchAgreesWithPerRowCompare) {
  const size_t n = 400;
  const Table table = MergeBase(n, 71);
  const EncodedColumn& w9 = table.column("w9");
  const EncodedColumn& s = table.column("s");
  const DmlCompareOp ops[] = {DmlCompareOp::kEq, DmlCompareOp::kNe,
                              DmlCompareOp::kLt, DmlCompareOp::kLe,
                              DmlCompareOp::kGt, DmlCompareOp::kGe};
  // Rows with w9 == base + 5 are tombstoned first; a match must skip them.
  const auto run = [&](const DmlCommand& cmd) {
    delta::TableVersion version(std::make_shared<Table>(MergeBase(n, 71)));
    EXPECT_TRUE(version.Apply(DeleteWhere("w9", DmlCompareOp::kEq,
                                          DmlValue::Int(kDomainBase + 5)))
                    .ok());
    const delta::DmlOutcome out = version.Apply(cmd);
    EXPECT_TRUE(out.ok()) << out.status.ToString();
    return out.rows_affected;
  };

  for (DmlCompareOp op : ops) {
    // Below, at and inside the domain, at its top code, and above it.
    for (int64_t v : {kDomainBase - 1000, kDomainBase, kDomainBase + 5,
                      kDomainBase + 100, kDomainBase + 511,
                      kDomainBase + 600}) {
      uint64_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        const int code = static_cast<int>(w9.Get(i));
        if (code != 5 && Compare(op, code, static_cast<int>(v - kDomainBase))) {
          ++want;
        }
      }
      EXPECT_EQ(run(DeleteWhere("w9", op, DmlValue::Int(v))), want)
          << "op " << static_cast<int>(op) << " v " << v;
    }
    // Dictionary strings: absent below, present, absent between two
    // entries, and absent above. An absent string ranks between codes.
    for (const std::string& v : {std::string("alpha"), std::string("golf"),
                                  std::string("hotel"), std::string("zulu")}) {
      uint64_t want = 0;
      for (size_t i = 0; i < n; ++i) {
        if (w9.Get(i) == 5) continue;
        const std::string& value = Vocab()[s.Get(i)];
        const int order = value < v ? -1 : (value == v ? 0 : 1);
        if (Compare(op, order, 0)) ++want;
      }
      EXPECT_EQ(run(DeleteWhere("s", op, DmlValue::String(v))), want)
          << "op " << static_cast<int>(op) << " s " << v;
    }
  }
}

}  // namespace
}  // namespace mcsort
