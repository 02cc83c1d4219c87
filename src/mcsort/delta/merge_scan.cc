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

MergedTable BuildMergedTable(const Table& base, const DeltaSnapshot& snap) {
  MergedTable out;
  const std::vector<std::string>& names = base.column_names();
  const size_t n_base = base.row_count();
  const size_t n_delta = snap.rows.size();

  // Row layout: live base rows in oid order, then live delta rows in
  // arrival order. Deterministic, so scan-merge and compaction agree.
  const std::vector<OidRun> runs = LiveRuns(n_base, snap.base_tombstones);
  out.new_oid_of_base.assign(n_base, kNoOid);
  out.new_oid_of_delta.assign(n_delta, kNoOid);
  uint32_t next_oid = 0;
  for (const OidRun& run : runs) {
    for (size_t oid = run.begin; oid < run.end; ++oid) {
      out.new_oid_of_base[oid] = next_oid++;
    }
  }
  for (size_t r = 0; r < n_delta; ++r) {
    if (snap.row_dead.size() <= r || !snap.row_dead[r]) {
      out.new_oid_of_delta[r] = next_oid++;
    }
  }
  const size_t n_live = next_oid;

  // Every slot of a merged column is written (live base rows, then live
  // delta rows), so allocation skips the zero fill.
  const auto allocate = [n_live](int width) {
    EncodedColumn column;
    column.ResetTyped(width, PhysicalTypeForWidth(width), n_live,
                      /*zero_fill=*/false);
    return column;
  };

  out.table = std::make_shared<Table>(n_live);
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
        uint32_t dst = out.new_oid_of_delta[r];
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
      out.table->AddColumnParts(
          name, std::move(merged_col),
          std::make_unique<StringDictionary>(
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
      if (out.new_oid_of_delta[r] == kNoOid) continue;
      new_base = std::min(new_base, snap.rows[r][c]);
    }
    const uint64_t shift =
        static_cast<uint64_t>(old_base) - static_cast<uint64_t>(new_base);
    uint64_t max_rel = max_base_code + shift;
    for (size_t r = 0; r < n_delta; ++r) {
      if (out.new_oid_of_delta[r] == kNoOid) continue;
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
      uint32_t dst = out.new_oid_of_delta[r];
      if (dst == kNoOid) continue;
      merged_col.Set(dst, static_cast<uint64_t>(snap.rows[r][c]) -
                              static_cast<uint64_t>(new_base));
    }
    out.table->AddColumnParts(name, std::move(merged_col), nullptr, new_base);
  }
  return out;
}

}  // namespace delta
}  // namespace mcsort
