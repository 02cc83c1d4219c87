// Merge-at-scan: materializing one consistent, fully encoded Table out of
// an immutable base and a delta snapshot — the read path of the write
// tier, and (by deliberate reuse) the compactor's re-encode step.
//
// The merged image appends live delta rows after the live base rows and
// re-encodes every column so the order-preserving invariant holds across
// both sources:
//
//   * string columns grow their dictionary: the merged dictionary is the
//     sorted union of the base dictionary and the column's overflow
//     values; base codes are remapped monotonically (new code = old code
//     + #new values sorting below it) — growth without touching native
//     values, the paper's encode-ahead premise preserved;
//   * numeric columns keep their domain base unless a delta native sits
//     below it (then the base drops and existing codes shift up
//     uniformly), and the width widens to cover the merged range;
//   * tombstoned rows (base or delta) are simply not emitted.
//
// Because compaction publishes exactly BuildMergedTable's output, a query
// over base+delta and the same query after compaction see value-identical
// tables by construction.
//
// Extend-or-rebuild. A merged image keeps append room past its rows:
// its columns view shared AppendBlocks (storage/append_block.h) with room
// for AppendCapacity(rows) rows. ExtendMergedTable appends rows that fit
// the image — every numeric value inside [domain base, base + 2^width),
// every string already in the image's dictionary — by writing only the
// new codes past the image's end, and carries the image's cached stats
// and ByteSlices forward from the appended codes alone. The result equals
// BuildMergedTable over the longer delta, field by field, because a fitting
// append changes no width, physical type, domain base or dictionary.
// Anything else — a tombstone, a value outside the width or below the
// base, a new overflow string, exhausted room — is a full build
// (TableVersion::Snapshot, delta/table_version.h).
#ifndef MCSORT_DELTA_MERGE_SCAN_H_
#define MCSORT_DELTA_MERGE_SCAN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "mcsort/storage/append_block.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace delta {

// A consistent copy of a DeltaStore prefix, taken under the owning
// TableVersion's mutex. The consumed_* counts let the compactor's publish
// step translate mutations that arrived after the snapshot.
struct DeltaSnapshot {
  std::vector<std::vector<int64_t>> rows;   // prefix copy, dead included
  std::vector<uint8_t> row_dead;            // parallel to rows
  std::vector<uint32_t> base_tombstones;    // prefix copy, arrival order
  std::vector<std::vector<std::string>> overflow;  // per column, id order
  size_t consumed_rows = 0;
  size_t consumed_base_tombstones = 0;
  size_t consumed_delta_tombstones = 0;
  uint64_t seq = 0;

  bool empty() const { return rows.empty() && base_tombstones.empty(); }
};

constexpr uint32_t kNoOid = std::numeric_limits<uint32_t>::max();

// Rows a merged image of `rows` rows has room for: rows plus
// max(1024, rows / 64), so the reserve is at most 1/64 of the image past
// 64Ki rows.
size_t AppendCapacity(size_t rows);

// The merged image, the oid translation the compactor needs to carry
// post-snapshot tombstones across the publish, and what ExtendMergedTable
// needs to append to the image in place.
struct MergedTable {
  std::shared_ptr<Table> table;
  // base oid -> merged oid (kNoOid when the base row was tombstoned).
  // Filled only when BuildMergedTable is asked for the oid maps.
  std::vector<uint32_t> new_oid_of_base;
  // delta row index (< consumed_rows) -> merged oid (kNoOid when dead).
  std::vector<uint32_t> new_oid_of_delta;
  // Per column: the block its codes view, with room for
  // table->append_capacity() rows.
  std::vector<std::shared_ptr<AppendBlock>> code_blocks;
  // Per column: stored delta id -> code in `table` for a dictionary column
  // whose dictionary grew by overflow values; null when the id is the
  // code (numeric columns, and dictionaries without overflow).
  std::vector<std::shared_ptr<const std::vector<Code>>> dict_codes;
};

// Builds the merged table. `snap` must describe rows of `base`'s schema
// (same column count/order); stored string ids must be valid against the
// base dictionary + snapshot overflow, which Apply guarantees. Reads pass
// `oid_maps = false`: only the compactor's publish uses the maps.
MergedTable BuildMergedTable(const Table& base, const DeltaSnapshot& snap,
                             bool oid_maps = true);

// Why a read could not extend the previous merged image and paid a full
// BuildMergedTable instead.
enum class MergeFallback {
  kNone,         // extended
  kNoImage,      // no image to extend (first build after a load or swap)
  kTombstone,    // a DELETE or UPDATE since the image
  kWidthOrBase,  // a value outside the image's width or below its base
  kDictionary,   // a string the image's dictionary lacks
  kCapacity,     // the image's append room is exhausted
};
const char* MergeFallbackName(MergeFallback reason);

// Appends `rows` — live delta rows in stored form (delta_store.h), in
// arrival order — to `prev`, an image that BuildMergedTable or this
// function produced, and returns kNone with the longer image in *out.
// The new codes are written past prev's last row into prev's blocks, which
// both images share; prev reads nothing there and never changes. Stats
// and ByteSlices that prev has cached are extended too. Returns the
// fallback reason, writing no byte of the blocks, when a row does not fit;
// kCapacity also when another image was already extended from prev.
MergeFallback ExtendMergedTable(const MergedTable& prev,
                                const std::vector<std::vector<int64_t>>& rows,
                                MergedTable* out);

}  // namespace delta
}  // namespace mcsort

#endif  // MCSORT_DELTA_MERGE_SCAN_H_
