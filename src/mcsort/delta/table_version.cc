#include "mcsort/delta/table_version.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "mcsort/common/logging.h"
#include "mcsort/common/timer.h"

namespace mcsort {
namespace delta {
namespace {

// Natives beyond ±2^62 would overflow the merged-range arithmetic in
// merge_scan (max - min over int64); the encode path rejects them up front.
constexpr int64_t kMaxAbsNative = int64_t{1} << 62;

bool CompareInt(DmlCompareOp op, int64_t a, int64_t b) {
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

bool CompareStr(DmlCompareOp op, const std::string& a, const std::string& b) {
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

// A base-row predicate in code space: code in [lo, hi], negated for !=.
// An empty range is lo > hi.
struct CodeRange {
  Code lo = 1;
  Code hi = 0;
  bool negate = false;

  bool Matches(Code code) const { return (code >= lo && code <= hi) != negate; }
};

// Translates `code op target` into a CodeRange. `exact` is false when the
// target sits strictly between codes target - 1 and target (a string
// absent from a sorted dictionary, `target` its lower-bound rank); a
// numeric target may lie outside the code domain on either side.
CodeRange RangeFor(DmlCompareOp op, __int128 target, bool exact) {
  __int128 lo = 1;
  __int128 hi = 0;
  constexpr __int128 kMax = static_cast<__int128>(~Code{0});
  switch (op) {
    case DmlCompareOp::kEq:
    case DmlCompareOp::kNe:
      if (exact) lo = hi = target;
      break;
    case DmlCompareOp::kLt: lo = 0; hi = target - 1; break;
    case DmlCompareOp::kLe: lo = 0; hi = exact ? target : target - 1; break;
    case DmlCompareOp::kGt: lo = exact ? target + 1 : target; hi = kMax; break;
    case DmlCompareOp::kGe: lo = target; hi = kMax; break;
  }
  CodeRange range;
  range.negate = op == DmlCompareOp::kNe;
  lo = std::max<__int128>(lo, 0);
  hi = std::min(hi, kMax);
  if (lo <= hi) {
    range.lo = static_cast<Code>(lo);
    range.hi = static_cast<Code>(hi);
  }
  return range;
}

int ColumnIndex(const std::vector<std::string>& names,
                const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

TableVersion::TableVersion(std::shared_ptr<const Table> base)
    : base_(std::move(base)),
      delta_(base_ ? base_->column_names().size() : 0) {
  MCSORT_CHECK(base_ != nullptr);
}

Status TableVersion::CheckValueLocked(size_t col, const DmlValue& value) const {
  const std::string& name = base_->column_names()[col];
  if (base_->HasDictionary(name)) {
    if (!value.is_string) {
      return Status::InvalidArgument("column '" + name +
                                     "' is a string column, got an int");
    }
    return Status::Ok();
  }
  if (value.is_string) {
    return Status::InvalidArgument("column '" + name +
                                   "' is numeric, got a string");
  }
  if (value.i64 <= -kMaxAbsNative || value.i64 >= kMaxAbsNative) {
    return Status::InvalidArgument("column '" + name +
                                   "': value outside the supported ±2^62 range");
  }
  return Status::Ok();
}

int64_t TableVersion::EncodeValueLocked(size_t col, const DmlValue& value) {
  const std::string& name = base_->column_names()[col];
  if (!base_->HasDictionary(name)) return value.i64;
  const StringDictionary& dict = base_->dictionary(name);
  const std::vector<std::string>& values = dict.values();
  auto it = std::lower_bound(values.begin(), values.end(), value.str);
  if (it != values.end() && *it == value.str) {
    return static_cast<int64_t>(it - values.begin());
  }
  return delta_.InternOverflow(col, value.str, values.size());
}

Status TableVersion::MatchLocked(const DmlPredicate& pred,
                                 std::vector<uint32_t>* base_oids,
                                 std::vector<uint32_t>* delta_rows) const {
  const std::vector<std::string>& names = base_->column_names();
  const int idx = ColumnIndex(names, pred.column);
  if (idx < 0) {
    return Status::InvalidArgument("predicate column '" + pred.column +
                                   "' does not exist");
  }
  Status check = CheckValueLocked(static_cast<size_t>(idx), pred.value);
  if (!check.ok()) return check;

  const std::string& name = names[idx];
  const EncodedColumn& col = base_->column(name);
  const bool is_dict = base_->HasDictionary(name);
  CodeRange range;
  if (is_dict) {
    const std::vector<std::string>& values = base_->dictionary(name).values();
    auto it = std::lower_bound(values.begin(), values.end(), pred.value.str);
    const bool exact = it != values.end() && *it == pred.value.str;
    range = RangeFor(pred.op, it - values.begin(), exact);
  } else {
    // native = domain_base + code, so `native op v` is `code op v - base`.
    range = RangeFor(pred.op,
                     static_cast<__int128>(pred.value.i64) -
                         base_->domain_base(name),
                     /*exact=*/true);
  }
  VisitCodes(col, [&](const auto* codes) {
    for (size_t oid = 0; oid < col.size(); ++oid) {
      if (range.Matches(codes[oid])) {
        base_oids->push_back(static_cast<uint32_t>(oid));
      }
    }
  });
  // Tombstone lookups only for the matches, not for every base row.
  base_oids->erase(std::remove_if(base_oids->begin(), base_oids->end(),
                                  [this](uint32_t oid) {
                                    return delta_.base_dead(oid);
                                  }),
                   base_oids->end());

  const size_t dict_size =
      is_dict ? base_->dictionary(name).size() : 0;
  for (size_t r = 0; r < delta_.row_count(); ++r) {
    if (delta_.row_dead(r)) continue;
    const int64_t stored = delta_.row(r)[idx];
    bool match;
    if (is_dict) {
      const size_t id = static_cast<size_t>(stored);
      const std::string& s =
          id < dict_size ? base_->dictionary(name).Decode(id)
                         : delta_.overflow(idx)[id - dict_size];
      match = CompareStr(pred.op, s, pred.value.str);
    } else {
      match = CompareInt(pred.op, stored, pred.value.i64);
    }
    if (match) delta_rows->push_back(static_cast<uint32_t>(r));
  }
  return Status::Ok();
}

DmlOutcome TableVersion::ApplyInsertLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  const std::vector<std::string>& names = base_->column_names();
  if (cmd.columns.size() != names.size()) {
    out.status = Status::InvalidArgument(
        "insert must assign every column (" + std::to_string(names.size()) +
        " expected, " + std::to_string(cmd.columns.size()) + " named)");
    return out;
  }
  // colmap[k] = table column index of cmd.columns[k].
  std::vector<size_t> colmap(cmd.columns.size());
  std::unordered_set<size_t> seen;
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    const int idx = ColumnIndex(names, cmd.columns[k]);
    if (idx < 0) {
      out.status = Status::InvalidArgument("unknown column '" +
                                           cmd.columns[k] + "'");
      return out;
    }
    if (!seen.insert(static_cast<size_t>(idx)).second) {
      out.status = Status::InvalidArgument("column '" + cmd.columns[k] +
                                           "' assigned twice");
      return out;
    }
    colmap[k] = static_cast<size_t>(idx);
  }

  for (size_t r = 0; r < cmd.rows.size(); ++r) {
    const std::vector<DmlValue>& values = cmd.rows[r];
    if (values.size() != cmd.columns.size()) {
      out.row_errors.push_back(
          {static_cast<uint32_t>(r), StatusCode::kInvalidArgument,
           "row has " + std::to_string(values.size()) + " values, " +
               std::to_string(cmd.columns.size()) + " columns named"});
      ++out.rows_rejected;
      continue;
    }
    // Validate the whole row before interning anything.
    Status row_status;
    for (size_t k = 0; k < values.size() && row_status.ok(); ++k) {
      row_status = CheckValueLocked(colmap[k], values[k]);
    }
    if (!row_status.ok()) {
      out.row_errors.push_back({static_cast<uint32_t>(r), row_status.code,
                                std::move(row_status.detail)});
      ++out.rows_rejected;
      continue;
    }
    std::vector<int64_t> row(names.size(), 0);
    for (size_t k = 0; k < values.size(); ++k) {
      row[colmap[k]] = EncodeValueLocked(colmap[k], values[k]);
    }
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::ApplyDeleteLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  if (!cmd.has_predicate) {
    out.status = Status::InvalidArgument("delete requires a predicate");
    return out;
  }
  std::vector<uint32_t> base_oids, delta_rows;
  out.status = MatchLocked(cmd.predicate, &base_oids, &delta_rows);
  if (!out.status.ok()) return out;
  for (uint32_t oid : base_oids) {
    if (delta_.TombstoneBase(oid)) ++out.rows_affected;
  }
  for (uint32_t r : delta_rows) {
    if (delta_.TombstoneDelta(r)) ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::ApplyUpdateLocked(const DmlCommand& cmd) {
  DmlOutcome out;
  if (!cmd.has_predicate) {
    out.status = Status::InvalidArgument("update requires a predicate");
    return out;
  }
  if (cmd.columns.empty() || cmd.rows.size() != 1 ||
      cmd.rows[0].size() != cmd.columns.size()) {
    out.status = Status::InvalidArgument(
        "update needs a SET list: columns plus one parallel value row");
    return out;
  }
  const std::vector<std::string>& names = base_->column_names();
  std::vector<size_t> colmap(cmd.columns.size());
  std::unordered_set<size_t> seen;
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    const int idx = ColumnIndex(names, cmd.columns[k]);
    if (idx < 0) {
      out.status = Status::InvalidArgument("unknown column '" +
                                           cmd.columns[k] + "'");
      return out;
    }
    if (!seen.insert(static_cast<size_t>(idx)).second) {
      out.status = Status::InvalidArgument("column '" + cmd.columns[k] +
                                           "' assigned twice");
      return out;
    }
    colmap[k] = static_cast<size_t>(idx);
    out.status = CheckValueLocked(colmap[k], cmd.rows[0][k]);
    if (!out.status.ok()) return out;
  }

  std::vector<uint32_t> base_oids, delta_rows;
  out.status = MatchLocked(cmd.predicate, &base_oids, &delta_rows);
  if (!out.status.ok()) return out;

  // Encode the SET values once — the same stored form lands in every
  // rewritten row.
  std::vector<int64_t> set_values(cmd.columns.size());
  for (size_t k = 0; k < cmd.columns.size(); ++k) {
    set_values[k] = EncodeValueLocked(colmap[k], cmd.rows[0][k]);
  }

  // Delete+insert: materialize each matched row in stored form (a base
  // code IS a valid delta id for its dictionary; numerics decode to the
  // native), override the SET columns, tombstone, re-append.
  for (uint32_t oid : base_oids) {
    std::vector<int64_t> row(names.size());
    for (size_t c = 0; c < names.size(); ++c) {
      const EncodedColumn& col = base_->column(names[c]);
      if (base_->HasDictionary(names[c])) {
        row[c] = static_cast<int64_t>(col.Get(oid));
      } else {
        row[c] = base_->domain_base(names[c]) +
                 static_cast<int64_t>(col.Get(oid));
      }
    }
    for (size_t k = 0; k < colmap.size(); ++k) row[colmap[k]] = set_values[k];
    if (!delta_.TombstoneBase(oid)) continue;
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  for (uint32_t r : delta_rows) {
    std::vector<int64_t> row = delta_.row(r);
    for (size_t k = 0; k < colmap.size(); ++k) row[colmap[k]] = set_values[k];
    if (!delta_.TombstoneDelta(r)) continue;
    delta_.AppendRow(std::move(row));
    ++out.rows_affected;
  }
  return out;
}

DmlOutcome TableVersion::Apply(const DmlCommand& cmd) {
  std::lock_guard<std::mutex> lock(mu_);
  DmlOutcome out;
  switch (cmd.op) {
    case DmlOp::kInsert: out = ApplyInsertLocked(cmd); break;
    case DmlOp::kDelete: out = ApplyDeleteLocked(cmd); break;
    case DmlOp::kUpdate: out = ApplyUpdateLocked(cmd); break;
    default:
      out.status = Status::InvalidArgument("unknown DML op");
      break;
  }
  out.delta_rows = delta_.live_rows();
  out.epoch = epoch_;
  return out;
}

DeltaSnapshot TableVersion::CopySnapshotLocked() const {
  DeltaSnapshot snap;
  snap.rows.reserve(delta_.row_count());
  snap.row_dead.reserve(delta_.row_count());
  for (size_t r = 0; r < delta_.row_count(); ++r) {
    snap.rows.push_back(delta_.row(r));
    snap.row_dead.push_back(delta_.row_dead(r) ? 1 : 0);
  }
  snap.base_tombstones = delta_.base_tombstones();
  snap.overflow.resize(delta_.num_columns());
  for (size_t c = 0; c < delta_.num_columns(); ++c) {
    snap.overflow[c] = delta_.overflow(c);
  }
  snap.consumed_rows = delta_.row_count();
  snap.consumed_base_tombstones = delta_.base_tombstones().size();
  snap.consumed_delta_tombstones = delta_.delta_tombstones().size();
  snap.seq = delta_.mutation_seq();
  return snap;
}

TableVersion::DeltaPosition TableVersion::PositionLocked() const {
  DeltaPosition pos;
  pos.rows = delta_.row_count();
  pos.base_tombstones = delta_.base_tombstones().size();
  pos.delta_tombstones = delta_.delta_tombstones().size();
  pos.overflow.resize(delta_.num_columns());
  for (size_t c = 0; c < delta_.num_columns(); ++c) {
    pos.overflow[c] = delta_.overflow_size(c);
  }
  pos.seq = delta_.mutation_seq();
  return pos;
}

MergeFallback TableVersion::ExtendableLocked(const Head* head) const {
  if (head == nullptr) return MergeFallback::kNoImage;
  if (delta_.base_tombstones().size() != head->pos.base_tombstones ||
      delta_.delta_tombstones().size() != head->pos.delta_tombstones) {
    return MergeFallback::kTombstone;
  }
  // A new overflow string grows the merged dictionary, even when no live
  // row holds it (an UPDATE that matched nothing interns its SET value).
  for (size_t c = 0; c < delta_.num_columns(); ++c) {
    if (delta_.overflow_size(c) != head->pos.overflow[c]) {
      return MergeFallback::kDictionary;
    }
  }
  return MergeFallback::kNone;
}

std::shared_ptr<const Table> TableVersion::Snapshot(MergeReport* report) {
  MergeReport local;
  MergeReport& out = report != nullptr ? *report : local;
  out = MergeReport();
  const auto resolved_locked = [&]() -> std::shared_ptr<const Table> {
    if (delta_.empty()) return base_;
    if (head_ != nullptr && head_->pos.seq == delta_.mutation_seq()) {
      out.kind = MergeReport::Kind::kCached;
      return head_->image.table;
    }
    return nullptr;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto table = resolved_locked()) return table;
  }
  std::lock_guard<std::mutex> build(build_mu_);
  for (;;) {
    std::shared_ptr<const Head> head;
    std::shared_ptr<const Table> base;
    uint64_t epoch = 0;
    auto next = std::make_shared<Head>();
    MergeFallback reason = out.fallback;
    std::vector<std::vector<int64_t>> rows;
    DeltaSnapshot snap;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // The build this reader waited for may be the one it needs.
      if (auto table = resolved_locked()) return table;
      head = head_;
      base = base_;
      epoch = epoch_;
      next->pos = PositionLocked();
      if (reason == MergeFallback::kNone) reason = ExtendableLocked(head.get());
      if (reason == MergeFallback::kNone) {
        rows.reserve(delta_.row_count() - head->pos.rows);
        for (size_t r = head->pos.rows; r < delta_.row_count(); ++r) {
          rows.push_back(delta_.row(r));
        }
      } else {
        snap = CopySnapshotLocked();
      }
    }
    Timer timer;
    if (reason == MergeFallback::kNone) {
      reason = ExtendMergedTable(head->image, rows, &next->image);
      if (reason != MergeFallback::kNone) {
        out.fallback = reason;  // retry as a full build
        continue;
      }
      out.kind = MergeReport::Kind::kExtended;
    } else {
      next->image = BuildMergedTable(*base, snap, /*oid_maps=*/false);
      out.kind = MergeReport::Kind::kFullBuild;
      out.fallback = reason;
    }
    out.seconds = timer.Seconds();
    std::shared_ptr<const Table> result = next->image.table;
    std::lock_guard<std::mutex> lock(mu_);
    // Even when writes arrived meanwhile, this image is the newest one
    // built against base_: the next read extends it.
    if (base_ == base && epoch_ == epoch) head_ = std::move(next);
    return result;
  }
}

TableVersion::CompactionJob TableVersion::BeginCompaction() {
  std::lock_guard<std::mutex> lock(mu_);
  CompactionJob job;
  job.base = base_;
  job.snap = CopySnapshotLocked();
  job.epoch = epoch_;
  return job;
}

bool TableVersion::Publish(const CompactionJob& job, MergedTable merged) {
  std::lock_guard<std::mutex> lock(mu_);
  if (base_ != job.base) return false;
  const std::vector<std::string>& names = base_->column_names();
  DeltaStore fresh(names.size());

  // Tail rows: re-encode dictionary ids against the merged dictionary (a
  // value absent there goes to the fresh overflow); numerics are stored
  // native, so they carry over untouched.
  for (size_t r = job.snap.consumed_rows; r < delta_.row_count(); ++r) {
    std::vector<int64_t> row = delta_.row(r);
    for (size_t c = 0; c < names.size(); ++c) {
      if (!base_->HasDictionary(names[c])) continue;
      const StringDictionary& old_dict = base_->dictionary(names[c]);
      const size_t id = static_cast<size_t>(row[c]);
      const std::string& s = id < old_dict.size()
                                 ? old_dict.Decode(id)
                                 : delta_.overflow(c)[id - old_dict.size()];
      const StringDictionary& new_dict = merged.table->dictionary(names[c]);
      const std::vector<std::string>& values = new_dict.values();
      auto it = std::lower_bound(values.begin(), values.end(), s);
      row[c] = (it != values.end() && *it == s)
                   ? static_cast<int64_t>(it - values.begin())
                   : fresh.InternOverflow(c, s, values.size());
    }
    fresh.AppendRow(std::move(row));
  }

  // Tail base tombstones: the target row lives in the merged image at a
  // translated oid (or was already gone at snapshot time).
  const std::vector<uint32_t>& base_tombs = delta_.base_tombstones();
  for (size_t i = job.snap.consumed_base_tombstones; i < base_tombs.size();
       ++i) {
    const uint32_t oid = base_tombs[i];
    if (oid < merged.new_oid_of_base.size() &&
        merged.new_oid_of_base[oid] != kNoOid) {
      fresh.TombstoneBase(merged.new_oid_of_base[oid]);
    }
  }

  // Tail delta tombstones: a pre-snapshot target became a merged base row;
  // a post-snapshot target keeps its (renumbered) delta index.
  const std::vector<uint32_t>& delta_tombs = delta_.delta_tombstones();
  for (size_t i = job.snap.consumed_delta_tombstones; i < delta_tombs.size();
       ++i) {
    const uint32_t r = delta_tombs[i];
    if (r < job.snap.consumed_rows) {
      if (r < merged.new_oid_of_delta.size() &&
          merged.new_oid_of_delta[r] != kNoOid) {
        fresh.TombstoneBase(merged.new_oid_of_delta[r]);
      }
    } else {
      fresh.TombstoneDelta(r - static_cast<uint32_t>(job.snap.consumed_rows));
    }
  }

  // The compacted base starts the next chain of merged images at the
  // fresh delta's start.
  auto head = std::make_shared<Head>();
  head->pos.overflow.assign(names.size(), 0);
  merged.new_oid_of_base = {};
  merged.new_oid_of_delta = {};
  // The fresh delta stores dictionary ids against the merged dictionary
  // itself: the id is the code.
  merged.dict_codes.assign(names.size(), nullptr);
  base_ = merged.table;
  head->image = std::move(merged);
  head_ = std::move(head);
  delta_ = std::move(fresh);
  ++epoch_;
  return true;
}

void TableVersion::ReplaceBase(std::shared_ptr<const Table> base,
                               bool clear_delta) {
  std::lock_guard<std::mutex> lock(mu_);
  MCSORT_CHECK(base != nullptr);
  const bool schema_changed =
      base->column_names().size() != delta_.num_columns();
  base_ = std::move(base);
  if (clear_delta || schema_changed) {
    delta_ = DeltaStore(base_->column_names().size());
  }
  ++epoch_;
  head_.reset();
}

uint64_t TableVersion::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t TableVersion::delta_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.live_rows();
}

uint64_t TableVersion::live_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_->row_count() - delta_.base_tombstones().size() +
         delta_.live_rows();
}

uint64_t TableVersion::pending_mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.row_count() + delta_.base_tombstones().size() +
         delta_.delta_tombstones().size();
}

size_t TableVersion::delta_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_.MemoryBytes();
}

std::shared_ptr<const Table> TableVersion::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

}  // namespace delta
}  // namespace mcsort
