#include "mcsort/delta/merge_scan.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/dictionary.h"

namespace mcsort {
namespace delta {
namespace {

// Sorted union of the base dictionary and the overflow values, plus the
// monotone remaps old code -> new code and overflow id -> new code.
struct DictMerge {
  std::vector<std::string> merged;       // strictly ascending
  std::vector<Code> new_code_of_dict;    // size = dict.size()
  std::vector<Code> new_code_of_ovf;     // size = overflow.size()
};

DictMerge MergeDictionary(const StringDictionary& dict,
                          const std::vector<std::string>& overflow) {
  DictMerge out;
  const std::vector<std::string>& base_values = dict.values();
  // Overflow values arrive in intern (id) order; sort an index over them so
  // the union merge is linear while new_code_of_ovf stays id-addressed.
  std::vector<size_t> ovf_order(overflow.size());
  std::iota(ovf_order.begin(), ovf_order.end(), 0);
  std::sort(ovf_order.begin(), ovf_order.end(),
            [&](size_t a, size_t b) { return overflow[a] < overflow[b]; });

  out.merged.reserve(base_values.size() + overflow.size());
  out.new_code_of_dict.resize(base_values.size());
  out.new_code_of_ovf.resize(overflow.size());
  size_t i = 0, j = 0;
  while (i < base_values.size() || j < ovf_order.size()) {
    Code next = static_cast<Code>(out.merged.size());
    if (j >= ovf_order.size() ||
        (i < base_values.size() && base_values[i] < overflow[ovf_order[j]])) {
      out.new_code_of_dict[i] = next;
      out.merged.push_back(base_values[i]);
      ++i;
    } else if (i >= base_values.size() ||
               overflow[ovf_order[j]] < base_values[i]) {
      out.new_code_of_ovf[ovf_order[j]] = next;
      out.merged.push_back(overflow[ovf_order[j]]);
      ++j;
    } else {
      // Equal — the interning invariant says this cannot happen, but a
      // duplicate must not reach FromSorted's strict-ascending CHECK.
      out.new_code_of_dict[i] = next;
      out.new_code_of_ovf[ovf_order[j]] = next;
      out.merged.push_back(base_values[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

// Live base oids as maximal [begin, end) runs: the complement of the
// sorted tombstones. Duplicates and out-of-range oids are ignored.
struct OidRun {
  size_t begin;
  size_t end;
};

std::vector<OidRun> LiveRuns(size_t n_base, std::vector<uint32_t> tombstones) {
  std::sort(tombstones.begin(), tombstones.end());
  std::vector<OidRun> runs;
  size_t next = 0;
  for (uint32_t oid : tombstones) {
    if (oid >= n_base) break;
    if (oid > next) runs.push_back({next, oid});
    next = size_t{oid} + 1;
  }
  if (next < n_base) runs.push_back({next, n_base});
  return runs;
}

// Largest code among the live base rows (0 when there are none).
uint64_t MaxLiveCode(const EncodedColumn& column,
                     const std::vector<OidRun>& runs) {
  return VisitCodes(column, [&](const auto* codes) {
    std::remove_const_t<std::remove_pointer_t<decltype(codes)>> hi = 0;
    for (const OidRun& run : runs) {
      for (size_t i = run.begin; i < run.end; ++i) {
        hi = std::max(hi, codes[i]);
      }
    }
    return static_cast<uint64_t>(hi);
  });
}

// Writes the live base codes of `src`, each mapped through `map`, to the
// front of `dst` in oid order.
template <typename Map>
void MapLiveRuns(const EncodedColumn& src, const std::vector<OidRun>& runs,
                 Map map, EncodedColumn* dst) {
  VisitCodes(src, [&](const auto* in) {
    VisitCodes(*dst, [&](auto* out) {
      using Out = std::remove_pointer_t<decltype(out)>;
      for (const OidRun& run : runs) {
        for (size_t i = run.begin; i < run.end; ++i) {
          *out++ = static_cast<Out>(map(in[i]));
        }
      }
    });
  });
}

// The identity mapping over an unchanged physical type: the live runs are
// copied as raw bytes.
void CopyLiveRuns(const EncodedColumn& src, const std::vector<OidRun>& runs,
                  EncodedColumn* dst) {
  MCSORT_CHECK(src.type() == dst->type());
  const size_t bytes = static_cast<size_t>(BytesOfPhysicalType(src.type()));
  const auto* in = static_cast<const uint8_t*>(src.raw_data());
  auto* out = static_cast<uint8_t*>(dst->raw_data());
  for (const OidRun& run : runs) {
    const size_t len = (run.end - run.begin) * bytes;
    std::memcpy(out, in + run.begin * bytes, len);
    out += len;
  }
}

}  // namespace

size_t AppendCapacity(size_t rows) {
  constexpr size_t kMinAppendRows = 1024;
  return rows + std::max(kMinAppendRows, rows / 64);
}

MergedTable BuildMergedTable(const Table& base, const DeltaSnapshot& snap,
                             bool oid_maps) {
  MergedTable out;
  const std::vector<std::string>& names = base.column_names();
  const size_t n_base = base.row_count();
  const size_t n_delta = snap.rows.size();

  // Row layout: live base rows in oid order, then live delta rows in
  // arrival order. Deterministic, so scan-merge and compaction agree.
  const std::vector<OidRun> runs = LiveRuns(n_base, snap.base_tombstones);
  if (oid_maps) out.new_oid_of_base.assign(n_base, kNoOid);
  uint32_t next_oid = 0;
  for (const OidRun& run : runs) {
    if (oid_maps) {
      std::iota(out.new_oid_of_base.begin() + run.begin,
                out.new_oid_of_base.begin() + run.end, next_oid);
    }
    next_oid += static_cast<uint32_t>(run.end - run.begin);
  }
  std::vector<uint32_t> new_oid_of_delta(n_delta, kNoOid);
  for (size_t r = 0; r < n_delta; ++r) {
    if (snap.row_dead.size() <= r || !snap.row_dead[r]) {
      new_oid_of_delta[r] = next_oid++;
    }
  }
  const size_t n_live = next_oid;

  // Each column views a block with room to append (ExtendMergedTable).
  // Every slot of the image is written (live base rows, then live delta
  // rows), so the block is not zero-filled.
  const size_t capacity = AppendCapacity(n_live);
  const auto allocate = [&](int width) {
    const PhysicalType type = PhysicalTypeForWidth(width);
    auto block = std::make_shared<AppendBlock>(
        capacity * static_cast<size_t>(BytesOfPhysicalType(type)), capacity,
        n_live);
    EncodedColumn column;
    column.ResetView(width, type, n_live, block->data());
    out.code_blocks.push_back(block);
    out.table->PinResource(std::move(block));
    return column;
  };

  out.table = std::make_shared<Table>(n_live);
  out.table->SetAppendCapacity(capacity);
  out.dict_codes.resize(names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const EncodedColumn& old_col = base.column(name);

    if (base.HasDictionary(name)) {
      const StringDictionary& dict = base.dictionary(name);
      static const std::vector<std::string> kNoOverflow;
      const std::vector<std::string>& overflow =
          c < snap.overflow.size() ? snap.overflow[c] : kNoOverflow;
      DictMerge dm = MergeDictionary(dict, overflow);
      const int width =
          std::max(1, BitsForCount(static_cast<uint64_t>(dm.merged.size())));
      EncodedColumn merged_col = allocate(width);
      // The remap is strictly increasing from 0, so it is the identity
      // exactly when its last entry is unchanged (no overflow value sorts
      // below a base value).
      const std::vector<Code>& remap = dm.new_code_of_dict;
      const bool identity =
          remap.empty() || remap.back() == remap.size() - 1;
      if (identity && merged_col.type() == old_col.type()) {
        CopyLiveRuns(old_col, runs, &merged_col);
      } else {
        MapLiveRuns(old_col, runs,
                    [&remap](Code code) { return remap[code]; }, &merged_col);
      }
      for (size_t r = 0; r < n_delta; ++r) {
        uint32_t dst = new_oid_of_delta[r];
        if (dst == kNoOid) continue;
        const int64_t id = snap.rows[r][c];
        MCSORT_CHECK(id >= 0);
        const size_t uid = static_cast<size_t>(id);
        if (uid < remap.size()) {
          merged_col.Set(dst, remap[uid]);
        } else {
          const size_t ovf = uid - remap.size();
          MCSORT_CHECK(ovf < dm.new_code_of_ovf.size());
          merged_col.Set(dst, dm.new_code_of_ovf[ovf]);
        }
      }
      if (!overflow.empty()) {
        // Stored id -> merged code, for the appends of later reads.
        auto codes =
            std::make_shared<std::vector<Code>>(std::move(dm.new_code_of_dict));
        codes->insert(codes->end(), dm.new_code_of_ovf.begin(),
                      dm.new_code_of_ovf.end());
        out.dict_codes[c] = std::move(codes);
      }
      out.table->AddColumnParts(
          name, std::move(merged_col),
          std::make_shared<const StringDictionary>(
              StringDictionary::FromSorted(std::move(dm.merged))),
          /*domain_base=*/0);
      continue;
    }

    // Numeric (plain code or domain-encoded): keep the old base unless a
    // delta native sits below it — lowering the base shifts every existing
    // code up uniformly, preserving order; widen to cover the merged range.
    const int64_t old_base = base.domain_base(name);
    const uint64_t max_base_code = MaxLiveCode(old_col, runs);
    int64_t new_base = old_base;
    for (size_t r = 0; r < n_delta; ++r) {
      if (new_oid_of_delta[r] == kNoOid) continue;
      new_base = std::min(new_base, snap.rows[r][c]);
    }
    const uint64_t shift =
        static_cast<uint64_t>(old_base) - static_cast<uint64_t>(new_base);
    uint64_t max_rel = max_base_code + shift;
    for (size_t r = 0; r < n_delta; ++r) {
      if (new_oid_of_delta[r] == kNoOid) continue;
      const uint64_t rel = static_cast<uint64_t>(snap.rows[r][c]) -
                           static_cast<uint64_t>(new_base);
      max_rel = std::max(max_rel, rel);
    }
    const int width = std::max(1, BitsForValue(max_rel));
    EncodedColumn merged_col = allocate(width);
    if (shift == 0 && merged_col.type() == old_col.type()) {
      CopyLiveRuns(old_col, runs, &merged_col);
    } else {
      MapLiveRuns(old_col, runs,
                  [shift](Code code) { return code + shift; }, &merged_col);
    }
    for (size_t r = 0; r < n_delta; ++r) {
      uint32_t dst = new_oid_of_delta[r];
      if (dst == kNoOid) continue;
      merged_col.Set(dst, static_cast<uint64_t>(snap.rows[r][c]) -
                              static_cast<uint64_t>(new_base));
    }
    out.table->AddColumnParts(name, std::move(merged_col), nullptr, new_base);
  }
  if (oid_maps) out.new_oid_of_delta = std::move(new_oid_of_delta);
  return out;
}

const char* MergeFallbackName(MergeFallback reason) {
  switch (reason) {
    case MergeFallback::kNone: return "none";
    case MergeFallback::kNoImage: return "no_image";
    case MergeFallback::kTombstone: return "tombstone";
    case MergeFallback::kWidthOrBase: return "width_base";
    case MergeFallback::kDictionary: return "dictionary";
    case MergeFallback::kCapacity: return "capacity";
  }
  return "unknown";
}

MergeFallback ExtendMergedTable(const MergedTable& prev,
                                const std::vector<std::vector<int64_t>>& rows,
                                MergedTable* out) {
  const Table& image = *prev.table;
  const std::vector<std::string>& names = image.column_names();
  const size_t n_prev = image.row_count();
  const size_t n = n_prev + rows.size();
  if (prev.code_blocks.size() != names.size()) return MergeFallback::kNoImage;
  if (n > image.append_capacity()) return MergeFallback::kCapacity;

  // Encode every value against the image first; a misfit writes nothing.
  std::vector<Code> codes(rows.size() * names.size());
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const Code max_code = LowBitsMask(image.column(name).width());
    const int64_t domain_base = image.domain_base(name);
    const std::vector<Code>* dict_codes = prev.dict_codes[c].get();
    const bool is_dict = image.HasDictionary(name);
    for (size_t r = 0; r < rows.size(); ++r) {
      const int64_t value = rows[r][c];
      Code code;
      if (is_dict) {
        MCSORT_CHECK(value >= 0);
        const size_t id = static_cast<size_t>(value);
        if (dict_codes != nullptr) {
          if (id >= dict_codes->size()) return MergeFallback::kDictionary;
          code = (*dict_codes)[id];
        } else {
          if (id >= image.dictionary(name).size()) {
            return MergeFallback::kDictionary;
          }
          code = id;
        }
      } else {
        if (value < domain_base) return MergeFallback::kWidthOrBase;
        code = static_cast<uint64_t>(value) - static_cast<uint64_t>(domain_base);
        if (code > max_code) return MergeFallback::kWidthOrBase;
      }
      codes[c * rows.size() + r] = code;
    }
  }
  for (const auto& block : prev.code_blocks) {
    if (!block->Claim(n_prev, n)) return MergeFallback::kCapacity;
  }

  MergedTable next;
  next.table = std::make_shared<Table>(n);
  next.table->SetAppendCapacity(image.append_capacity());
  next.code_blocks = prev.code_blocks;
  next.dict_codes = prev.dict_codes;
  for (size_t c = 0; c < names.size(); ++c) {
    const std::string& name = names[c];
    const EncodedColumn& old_col = image.column(name);
    AppendBlock& block = *prev.code_blocks[c];
    EncodedColumn column;
    column.ResetView(old_col.width(), old_col.type(), n, block.data());
    VisitCodes(column, [&](auto* dst) {
      using Out = std::remove_pointer_t<decltype(dst)>;
      const Code* src = codes.data() + c * rows.size();
      for (size_t r = 0; r < rows.size(); ++r) {
        dst[n_prev + r] = static_cast<Out>(src[r]);
      }
    });
    // Layouts prev never built stay lazy here too.
    const ColumnStats* old_stats = image.cached_stats(name);
    ColumnStats stats;
    const bool has_stats =
        old_stats != nullptr && old_stats->Extend(column, &stats);
    const ByteSliceColumn* old_slices = image.cached_byteslice(name);
    ByteSliceColumn slices;
    const bool has_slices =
        old_slices != nullptr && old_slices->Extend(column, &slices);
    next.table->AddColumnParts(name, std::move(column),
                               image.shared_dictionary(name),
                               image.domain_base(name));
    if (has_stats) next.table->SetStats(name, std::move(stats));
    if (has_slices) next.table->SetByteSlice(name, std::move(slices));
    next.table->PinResource(prev.code_blocks[c]);
  }
  *out = std::move(next);
  return MergeFallback::kNone;
}

}  // namespace delta
}  // namespace mcsort
