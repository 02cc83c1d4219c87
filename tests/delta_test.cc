// Write-path tests: the delta store's row/tombstone/overflow index, the
// DML wire codec, merge-at-scan visibility through the service catalog,
// and the compaction contract — base+delta query results value-identical
// to post-compaction results (sorts, group scans, aggregates, including
// dictionary growth through the overflow route), readers pinned to the
// old epoch unaffected by a concurrent publish, and typed per-row errors
// for rejected DML.
//
// Determinism: rho = 0 (exhaustive search) and threads = 1, so repeated
// executions of one spec against one physical table are bit-identical —
// the pinned-epoch test compares raw oid vectors, not just key sequences.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "mcsort/common/random.h"
#include "mcsort/delta/delta_store.h"
#include "mcsort/delta/dml.h"
#include "mcsort/delta/merge_scan.h"
#include "mcsort/delta/table_version.h"
#include "mcsort/net/protocol.h"
#include "mcsort/scan/byteslice_scan.h"
#include "mcsort/service/query_service.h"
#include "mcsort/storage/dictionary.h"
#include "mcsort/storage/table.h"

namespace mcsort {
namespace {

using delta::DmlCommand;
using delta::DmlCompareOp;
using delta::DmlOp;
using delta::DmlOutcome;
using delta::DmlValue;

ServiceOptions TestOptions() {
  ServiceOptions options;
  options.threads = 1;
  options.rho = 0;  // exhaustive search: same plan every time
  options.use_calibration = false;
  return options;
}

// A small table with one dictionary column "s" and numerics "a" / "m".
Table DictTable(size_t n, uint64_t seed) {
  static const std::vector<std::string> kVocab = {
      "apple", "banana", "cherry", "grape", "kiwi", "lemon"};
  Rng rng(seed);
  std::vector<std::string> values(n);
  for (size_t r = 0; r < n; ++r) {
    values[r] = kVocab[rng.NextBounded(kVocab.size())];
  }
  auto dict = std::make_unique<StringDictionary>(StringDictionary::Build(values));
  EncodedColumn s(dict->code_width(), n);
  for (size_t r = 0; r < n; ++r) s.Set(r, dict->Encode(values[r]));
  EncodedColumn a(6, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    m.Set(r, rng.NextBounded(1000));
  }
  Table table;
  table.AddColumnParts("s", std::move(s), std::move(dict), 0);
  table.AddColumn("a", std::move(a));
  table.AddColumn("m", std::move(m));
  return table;
}

DmlCommand Insert(const std::string& table,
                  std::vector<std::vector<DmlValue>> rows) {
  DmlCommand cmd;
  cmd.op = DmlOp::kInsert;
  cmd.table = table;
  cmd.columns = {"s", "a", "m"};
  cmd.rows = std::move(rows);
  return cmd;
}

DmlCommand Where(DmlOp op, const std::string& table, const std::string& col,
                 DmlCompareOp cmp, DmlValue value) {
  DmlCommand cmd;
  cmd.op = op;
  cmd.table = table;
  cmd.has_predicate = true;
  cmd.predicate.column = col;
  cmd.predicate.op = cmp;
  cmd.predicate.value = std::move(value);
  return cmd;
}

// Decodes column `name` at every oid of `oids` into strings, so sorted
// sequences compare across physically different (re-encoded) tables.
std::vector<std::string> DecodeAt(const Table& table, const std::string& name,
                                  const std::vector<uint32_t>& oids) {
  std::vector<std::string> out;
  out.reserve(oids.size());
  const EncodedColumn& col = table.column(name);
  for (uint32_t oid : oids) {
    const Code code = col.Get(oid);
    if (table.HasDictionary(name)) {
      out.push_back(table.dictionary(name).Decode(code));
    } else {
      out.push_back(std::to_string(table.domain_base(name) +
                                   static_cast<int64_t>(code)));
    }
  }
  return out;
}

// The value-level equality Lemma 1 fixes: group counts, aggregates, and
// the decoded key sequence of every sort/group column — everything except
// raw oids, which renumber across compaction.
void ExpectValueIdentical(const Table& got_table, const QueryResult& got,
                          const Table& want_table, const QueryResult& want,
                          const std::vector<std::string>& key_columns,
                          const std::string& label) {
  EXPECT_EQ(got.input_rows, want.input_rows) << label;
  EXPECT_EQ(got.filtered_rows, want.filtered_rows) << label;
  EXPECT_EQ(got.num_groups, want.num_groups) << label;
  EXPECT_EQ(got.aggregate_values, want.aggregate_values) << label;
  EXPECT_EQ(got.aggregate_avg, want.aggregate_avg) << label;
  ASSERT_EQ(got.result_oids.size(), want.result_oids.size()) << label;
  for (const std::string& column : key_columns) {
    EXPECT_EQ(DecodeAt(got_table, column, got.result_oids),
              DecodeAt(want_table, column, want.result_oids))
        << label << " column " << column;
  }
}

// ---------------------------------------------------------------------------
// DeltaStore unit
// ---------------------------------------------------------------------------

TEST(DeltaStoreTest, RowsTombstonesAndOverflow) {
  delta::DeltaStore store(2);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.AppendRow({1, 2}), 0u);
  EXPECT_EQ(store.AppendRow({3, 4}), 1u);
  EXPECT_EQ(store.live_rows(), 2u);

  EXPECT_TRUE(store.TombstoneDelta(0));
  EXPECT_FALSE(store.TombstoneDelta(0));  // idempotent
  EXPECT_TRUE(store.row_dead(0));
  EXPECT_EQ(store.live_rows(), 1u);

  EXPECT_TRUE(store.TombstoneBase(7));
  EXPECT_FALSE(store.TombstoneBase(7));
  EXPECT_TRUE(store.base_dead(7));
  EXPECT_FALSE(store.base_dead(8));
  EXPECT_EQ(store.base_tombstones().size(), 1u);

  // Overflow interning deduplicates and offsets by the dictionary size.
  const int64_t id = store.InternOverflow(0, "zebra", /*dict_size=*/10);
  EXPECT_EQ(id, 10);
  EXPECT_EQ(store.InternOverflow(0, "zebra", 10), 10);
  EXPECT_EQ(store.InternOverflow(0, "yak", 10), 11);
  EXPECT_EQ(store.FindOverflow(0, "zebra", 10), 10);
  EXPECT_EQ(store.FindOverflow(0, "absent", 10), -1);
  EXPECT_EQ(store.overflow_size(0), 2u);
  EXPECT_FALSE(store.empty());
  EXPECT_GT(store.mutation_seq(), 0u);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(DmlCodecTest, RoundTrip) {
  DmlCommand cmd;
  cmd.op = DmlOp::kUpdate;
  cmd.table = "inventory";
  cmd.columns = {"s", "m"};
  cmd.rows = {{DmlValue::String("quince"), DmlValue::Int(-17)}};
  cmd.has_predicate = true;
  cmd.predicate.column = "a";
  cmd.predicate.op = DmlCompareOp::kGe;
  cmd.predicate.value = DmlValue::Int(12);

  DmlCommand decoded;
  ASSERT_TRUE(net::DecodeDml(net::EncodeDml(cmd), &decoded));
  EXPECT_EQ(decoded.op, cmd.op);
  EXPECT_EQ(decoded.table, cmd.table);
  EXPECT_EQ(decoded.columns, cmd.columns);
  ASSERT_EQ(decoded.rows.size(), 1u);
  EXPECT_TRUE(decoded.rows[0][0].is_string);
  EXPECT_EQ(decoded.rows[0][0].str, "quince");
  EXPECT_EQ(decoded.rows[0][1].i64, -17);
  ASSERT_TRUE(decoded.has_predicate);
  EXPECT_EQ(decoded.predicate.column, "a");
  EXPECT_EQ(decoded.predicate.op, DmlCompareOp::kGe);
  EXPECT_EQ(decoded.predicate.value.i64, 12);
}

TEST(DmlCodecTest, RejectsMalformedPayloads) {
  DmlCommand cmd = Insert("t", {{DmlValue::Int(1), DmlValue::Int(2),
                                 DmlValue::Int(3)}});
  const std::string good = net::EncodeDml(cmd);
  DmlCommand decoded;
  ASSERT_TRUE(net::DecodeDml(good, &decoded));

  // Truncation anywhere must fail, never read past the end.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(net::DecodeDml(good.substr(0, cut), &decoded))
        << "cut at " << cut;
  }
  // Trailing garbage violates the strict AtEnd contract.
  EXPECT_FALSE(net::DecodeDml(good + "x", &decoded));
  // Bad opcode.
  std::string bad = good;
  bad[0] = 77;
  EXPECT_FALSE(net::DecodeDml(bad, &decoded));
  EXPECT_FALSE(net::DecodeDml(std::string(), &decoded));
}

TEST(DmlCodecTest, ReplyRoundTripAndValidation) {
  net::DmlReply reply;
  reply.ok = false;
  reply.status_code = static_cast<uint8_t>(StatusCode::kInvalidArgument);
  reply.detail = "bad column list";
  reply.rows_affected = 3;
  reply.rows_rejected = 1;
  reply.delta_rows = 4;
  reply.epoch = 2;
  delta::DmlRowError row_error;
  row_error.row = 9;
  row_error.code = StatusCode::kInvalidArgument;
  row_error.detail = "arity";
  reply.row_errors.push_back(row_error);

  net::DmlReply decoded;
  ASSERT_TRUE(net::DecodeDmlReply(net::EncodeDmlReply(reply), &decoded));
  EXPECT_EQ(decoded.ok, reply.ok);
  EXPECT_EQ(decoded.status_code, reply.status_code);
  EXPECT_EQ(decoded.detail, reply.detail);
  EXPECT_EQ(decoded.rows_affected, reply.rows_affected);
  EXPECT_EQ(decoded.rows_rejected, reply.rows_rejected);
  ASSERT_EQ(decoded.row_errors.size(), 1u);
  EXPECT_EQ(decoded.row_errors[0].row, 9u);
  EXPECT_EQ(decoded.row_errors[0].detail, "arity");

  // An out-of-range status code must not decode.
  reply.status_code = 200;
  EXPECT_FALSE(net::DecodeDmlReply(net::EncodeDmlReply(reply), &decoded));
}

// ---------------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------------

TEST(DeltaServiceTest, InsertsVisibleAtNextScan) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(256, 11));
  const uint64_t before = service.FindTableShared("t")->row_count();

  DmlOutcome out = service.ApplyDml(Insert(
      "t", {{DmlValue::String("apple"), DmlValue::Int(3), DmlValue::Int(40)},
            {DmlValue::String("zebra"), DmlValue::Int(5), DmlValue::Int(41)}}));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, 2u);
  EXPECT_EQ(out.delta_rows, 2u);

  const std::shared_ptr<const Table> merged = service.FindTableShared("t");
  EXPECT_EQ(merged->row_count(), before + 2);
  // "zebra" is outside the base dictionary: visible through the merged
  // image's grown dictionary before any compaction ran.
  ASSERT_TRUE(merged->HasDictionary("s"));
  const auto& values = merged->dictionary("s").values();
  EXPECT_NE(std::find(values.begin(), values.end(), "zebra"), values.end());

  const QueryService::DeltaInfo info = service.GetDeltaInfo("t");
  EXPECT_TRUE(info.has_version);
  EXPECT_EQ(info.delta_rows, 2u);
  EXPECT_EQ(info.live_rows, before + 2);
}

TEST(DeltaServiceTest, TypedRowAndOpErrors) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(64, 5));

  // Unknown table: op-level kNotFound, nothing applied.
  DmlOutcome out = service.ApplyDml(Insert("nope", {}));
  EXPECT_EQ(out.status.code, StatusCode::kNotFound);

  // Partial column list: op-level kInvalidArgument.
  DmlCommand partial;
  partial.op = DmlOp::kInsert;
  partial.table = "t";
  partial.columns = {"s", "a"};
  partial.rows = {{DmlValue::String("apple"), DmlValue::Int(1)}};
  out = service.ApplyDml(partial);
  EXPECT_EQ(out.status.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(service.GetDeltaInfo("t").delta_rows, 0u);

  // Row-level: wrong arity and a string into a numeric column are rejected
  // per row; the good row in the same command still lands.
  DmlCommand mixed = Insert(
      "t", {{DmlValue::String("apple"), DmlValue::Int(1)},  // arity 2 != 3
            {DmlValue::String("apple"), DmlValue::String("NaN"),
             DmlValue::Int(2)},  // type mismatch on "a"
            {DmlValue::String("banana"), DmlValue::Int(2), DmlValue::Int(3)}});
  out = service.ApplyDml(mixed);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, 1u);
  EXPECT_EQ(out.rows_rejected, 2u);
  ASSERT_EQ(out.row_errors.size(), 2u);
  EXPECT_EQ(out.row_errors[0].row, 0u);
  EXPECT_EQ(out.row_errors[0].code, StatusCode::kInvalidArgument);
  EXPECT_EQ(out.row_errors[1].row, 1u);

  // DELETE requires a predicate.
  DmlCommand bare;
  bare.op = DmlOp::kDelete;
  bare.table = "t";
  out = service.ApplyDml(bare);
  EXPECT_EQ(out.status.code, StatusCode::kInvalidArgument);
}

TEST(DeltaServiceTest, DeleteAndUpdateSemantics) {
  QueryService service(TestOptions());
  Table table = DictTable(128, 21);
  const size_t base_rows = table.row_count();
  service.AdoptTable("t", std::move(table));

  // Insert two rows, then delete every row with a == 3 (base and delta).
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("kiwi"),
                                          DmlValue::Int(3), DmlValue::Int(7)},
                                         {DmlValue::String("kiwi"),
                                          DmlValue::Int(4), DmlValue::Int(8)}}))
                  .ok());
  std::shared_ptr<const Table> merged = service.FindTableShared("t");
  size_t expect_a3 = 0;
  const EncodedColumn& a = merged->column("a");
  for (size_t r = 0; r < merged->row_count(); ++r) {
    if (merged->domain_base("a") + static_cast<int64_t>(a.Get(r)) == 3) {
      ++expect_a3;
    }
  }
  ASSERT_GT(expect_a3, 0u);

  DmlOutcome out = service.ApplyDml(
      Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kEq, DmlValue::Int(3)));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.rows_affected, expect_a3);
  EXPECT_EQ(service.FindTableShared("t")->row_count(),
            base_rows + 2 - expect_a3);

  // Deleting the same rows again matches nothing.
  out = service.ApplyDml(
      Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kEq, DmlValue::Int(3)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.rows_affected, 0u);

  // UPDATE rewrites every a == 4 row's "s" to an overflow string; the row
  // count is unchanged and the new value is visible.
  DmlCommand update =
      Where(DmlOp::kUpdate, "t", "a", DmlCompareOp::kEq, DmlValue::Int(4));
  update.columns = {"s"};
  update.rows = {{DmlValue::String("zzz-updated")}};
  out = service.ApplyDml(update);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_GT(out.rows_affected, 0u);
  merged = service.FindTableShared("t");
  EXPECT_EQ(merged->row_count(), base_rows + 2 - expect_a3);
  size_t updated = 0;
  const EncodedColumn& s = merged->column("s");
  const EncodedColumn& a2 = merged->column("a");
  for (size_t r = 0; r < merged->row_count(); ++r) {
    if (merged->dictionary("s").Decode(s.Get(r)) == "zzz-updated") {
      ++updated;
      EXPECT_EQ(merged->domain_base("a") + static_cast<int64_t>(a2.Get(r)), 4);
    }
  }
  EXPECT_EQ(updated, out.rows_affected);
}

// The acceptance contract: query results against base+delta are
// value-identical to results after compaction folded the delta — for
// sorts, group scans, and aggregates, including rows whose strings grew
// the dictionary through the overflow route.
TEST(DeltaServiceTest, MergeScanMatchesPostCompaction) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(512, 33));

  // A write mix that exercises every delta feature: dictionary hits, two
  // overflow strings (one sorting before "apple", one after "lemon"),
  // below-base numerics are avoided but duplicates and deletes are not.
  Rng rng(77);
  std::vector<std::vector<DmlValue>> rows;
  static const char* kNew[] = {"aardvark", "mulberry", "banana", "grape"};
  for (int r = 0; r < 64; ++r) {
    rows.push_back({DmlValue::String(kNew[rng.NextBounded(4)]),
                    DmlValue::Int(static_cast<int64_t>(rng.NextBounded(20))),
                    DmlValue::Int(static_cast<int64_t>(rng.NextBounded(1000)))});
  }
  ASSERT_TRUE(service.ApplyDml(Insert("t", rows)).ok());
  ASSERT_TRUE(
      service
          .ApplyDml(Where(DmlOp::kDelete, "t", "a", DmlCompareOp::kLt,
                          DmlValue::Int(2)))
          .ok());
  DmlCommand update =
      Where(DmlOp::kUpdate, "t", "a", DmlCompareOp::kEq, DmlValue::Int(9));
  update.columns = {"m"};
  update.rows = {{DmlValue::Int(555)}};
  ASSERT_TRUE(service.ApplyDml(update).ok());

  const std::vector<QuerySpec> specs = {
      QuerySpecBuilder("groups").GroupBy({"s", "a"}).Sum("m").Count().Build(),
      QuerySpecBuilder("sort")
          .OrderBy("s")
          .OrderBy("a", SortOrder::kDescending)
          .OrderBy("m")
          .Build(),
      QuerySpecBuilder("filtered")
          .Filter("a", CompareOp::kLess, 10)
          .GroupBy({"s"})
          .Sum("m")
          .Aggregate(AggOp::kAvg, "m")
          .Build(),
  };
  const std::vector<std::vector<std::string>> keys = {
      {"s", "a"}, {"s", "a", "m"}, {"s"}};

  const std::shared_ptr<const Table> before = service.FindTableShared("t");
  std::vector<QueryResult> results_before;
  for (const QuerySpec& spec : specs) {
    auto session = service.OpenSession(*before);
    const ExecResult run = session->Execute(spec, ExecContext::Default());
    ASSERT_TRUE(run.ok()) << run.status.detail;
    results_before.push_back(run.result);
  }

  ASSERT_TRUE(service.CompactTable("t"));
  EXPECT_EQ(service.GetDeltaInfo("t").delta_rows, 0u);
  EXPECT_GE(service.GetDeltaInfo("t").epoch, 1u);

  const std::shared_ptr<const Table> after = service.FindTableShared("t");
  ASSERT_NE(before.get(), after.get());
  EXPECT_EQ(before->row_count(), after->row_count());
  // The overflow strings are now first-class dictionary members.
  const auto& dict = after->dictionary("s").values();
  EXPECT_NE(std::find(dict.begin(), dict.end(), "aardvark"), dict.end());
  EXPECT_NE(std::find(dict.begin(), dict.end(), "mulberry"), dict.end());

  for (size_t i = 0; i < specs.size(); ++i) {
    auto session = service.OpenSession(*after);
    const ExecResult run = session->Execute(specs[i], ExecContext::Default());
    ASSERT_TRUE(run.ok()) << run.status.detail;
    ExpectValueIdentical(*after, run.result, *before, results_before[i],
                         keys[i], specs[i].id);
  }

  // An empty delta has nothing to compact.
  EXPECT_FALSE(service.CompactTable("t"));
}

// Readers never block on (or observe) a concurrent compaction: a snapshot
// pinned before the publish answers bit-identically after it.
TEST(DeltaServiceTest, PinnedEpochSurvivesCompaction) {
  QueryService service(TestOptions());
  service.AdoptTable("t", DictTable(256, 44));
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("quince"),
                                          DmlValue::Int(7), DmlValue::Int(9)}}))
                  .ok());

  const QuerySpec spec =
      QuerySpecBuilder("pinned").GroupBy({"s", "a"}).Sum("m").Count().Build();
  const std::shared_ptr<const Table> pinned = service.FindTableShared("t");
  auto session = service.OpenSession(*pinned);
  const ExecResult before = session->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service.CompactTable("t"));
  // More writes land in the NEW epoch while the old one stays pinned.
  ASSERT_TRUE(service
                  .ApplyDml(Insert("t", {{DmlValue::String("apple"),
                                          DmlValue::Int(1), DmlValue::Int(2)}}))
                  .ok());

  // threads=1 + rho=0: the rerun on the same physical table must be
  // bit-identical, raw oids included.
  auto session2 = service.OpenSession(*pinned);
  const ExecResult after = session2->Execute(spec, ExecContext::Default());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.result.num_groups, before.result.num_groups);
  EXPECT_EQ(after.result.aggregate_values, before.result.aggregate_values);
  EXPECT_EQ(after.result.result_oids, before.result.result_oids);
  EXPECT_EQ(after.result.result_group_order, before.result.result_group_order);

  // The live binding moved on.
  EXPECT_EQ(service.FindTableShared("t")->row_count(),
            pinned->row_count() + 1);
}

// Compaction must survive writes racing the heavy phase: rows and
// tombstones that arrive between BeginCompaction and Publish land in the
// post-publish delta and stay queryable.
TEST(DeltaServiceTest, WritesDuringCompactionSurvivePublish) {
  Table base = DictTable(128, 55);
  auto shared = std::make_shared<Table>(std::move(base));
  delta::TableVersion version(shared);

  DmlCommand pre = Insert("", {{DmlValue::String("walnut"), DmlValue::Int(3),
                                DmlValue::Int(30)}});
  pre.columns = {"s", "a", "m"};
  ASSERT_TRUE(version.Apply(pre).ok());

  delta::TableVersion::CompactionJob job = version.BeginCompaction();
  ASSERT_FALSE(job.snap.empty());
  delta::MergedTable merged = delta::BuildMergedTable(*job.base, job.snap);

  // Tail writes while the "heavy phase" runs.
  DmlCommand tail = Insert("", {{DmlValue::String("xigua"), DmlValue::Int(5),
                                 DmlValue::Int(50)}});
  ASSERT_TRUE(version.Apply(tail).ok());
  ASSERT_TRUE(version
                  .Apply(Where(DmlOp::kDelete, "", "a", DmlCompareOp::kEq,
                               DmlValue::Int(3)))
                  .ok());
  const uint64_t live_before = version.live_rows();

  ASSERT_TRUE(version.Publish(job, std::move(merged)));
  EXPECT_EQ(version.live_rows(), live_before);
  EXPECT_EQ(version.epoch(), 1u);

  // The tail row is still visible and the deleted rows are still gone.
  const std::shared_ptr<const Table> image = version.Snapshot();
  EXPECT_EQ(image->row_count(), live_before);
  bool saw_tail = false;
  const EncodedColumn& s = image->column("s");
  const EncodedColumn& a = image->column("a");
  for (size_t r = 0; r < image->row_count(); ++r) {
    const std::string value = image->dictionary("s").Decode(s.Get(r));
    if (value == "xigua") saw_tail = true;
    EXPECT_NE(image->domain_base("a") + static_cast<int64_t>(a.Get(r)), 3)
        << "deleted row leaked at " << r;
  }
  EXPECT_TRUE(saw_tail);
  const auto& values = image->dictionary("s").values();
  EXPECT_NE(std::find(values.begin(), values.end(), "walnut"), values.end())
      << "pre-snapshot row lost";
}

// ---------------------------------------------------------------------------
// Spill key-width satellite
// ---------------------------------------------------------------------------

// A composite key wider than the external merge's 128-bit cap must fail
// over to degrade-by-narrowing with a TYPED kUnimplemented detail and the
// exec.spill.key_too_wide counter — never a silent degrade.
TEST(SpillKeyWidthTest, OverWideKeyIsTypedNotSilent) {
  const size_t n = 4096;
  Rng rng(66);
  Table table;
  for (const char* name : {"k1", "k2", "k3"}) {
    EncodedColumn col(45, n);
    for (size_t r = 0; r < n; ++r) {
      col.Set(r, rng.NextBounded(uint64_t{1} << 45));
    }
    table.AddColumn(name, std::move(col));
  }

  QueryService service(TestOptions());
  auto session = service.OpenSession(table);
  const QuerySpec spec = QuerySpecBuilder("wide")
                             .OrderBy("k1")
                             .OrderBy("k2")
                             .OrderBy("k3")
                             .Build();
  ExecContext ctx;
  ctx.WithScratchBudget(1024);  // force the over-budget router
  const ExecResult run = session->Execute(spec, ctx);
  EXPECT_TRUE(run.result.spill_key_too_wide);
  EXPECT_EQ(
      service.metrics().counter("exec.spill.key_too_wide")->value(), 1u);
}

// ---------------------------------------------------------------------------
// Extend-or-rebuild merge-at-scan
// ---------------------------------------------------------------------------

using MergeKind = delta::TableVersion::MergeReport::Kind;
using delta::MergeFallback;

const std::vector<std::string>& ChainVocab() {
  static const std::vector<std::string> kVocab = {"ant", "bee", "cat", "dog",
                                                  "eel", "fox", "gnu"};
  return kVocab;
}

// "s": dictionary; "a": domain-encoded (base 100); "m": 10-bit plain;
// "w": 17 bits, wider than the stats histogram (seen-code bitmap); "x":
// 30 bits, too wide for a bitmap (its stats rebuild lazily).
std::shared_ptr<Table> ChainTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> values(n);
  for (auto& v : values) v = ChainVocab()[rng.NextBounded(5)];
  auto dict = std::make_unique<StringDictionary>(StringDictionary::Build(values));
  EncodedColumn s(dict->code_width(), n), a(6, n), m(10, n), w(17, n),
      x(30, n);
  for (size_t r = 0; r < n; ++r) {
    s.Set(r, dict->Encode(values[r]));
    a.Set(r, rng.NextBounded(40));
    m.Set(r, rng.NextBounded(1000));
    w.Set(r, rng.NextBounded(100000));
    x.Set(r, rng.NextBounded(uint64_t{1} << 30));
  }
  auto table = std::make_shared<Table>();
  table->AddColumnParts("s", std::move(s), std::move(dict), 0);
  table->AddColumnParts("a", std::move(a), nullptr, 100);
  table->AddColumn("m", std::move(m));
  table->AddColumn("w", std::move(w));
  table->AddColumn("x", std::move(x));
  return table;
}

// A row whose values fit the image unless `misfits`: then about one row
// in forty each brings a new string, a value below "a"'s domain base, or
// one past its width.
std::vector<DmlValue> ChainRow(Rng& rng, bool misfits, int* fresh_strings) {
  std::string s = ChainVocab()[rng.NextBounded(5)];
  if (misfits && rng.NextBounded(40) == 0) {
    s = rng.NextBounded(2) == 0 ? ChainVocab()[5 + rng.NextBounded(2)]
                                : "new" + std::to_string((*fresh_strings)++);
  }
  int64_t a = 100 + static_cast<int64_t>(rng.NextBounded(40));
  const uint64_t shape = misfits ? rng.NextBounded(40) : 2;
  if (shape == 0) a = 100 - static_cast<int64_t>(rng.NextBounded(30));  // base
  if (shape == 1) a = 100 + 64 + static_cast<int64_t>(rng.NextBounded(900));
  return {DmlValue::String(s), DmlValue::Int(a),
          DmlValue::Int(static_cast<int64_t>(rng.NextBounded(1000))),
          DmlValue::Int(static_cast<int64_t>(rng.NextBounded(100000))),
          DmlValue::Int(static_cast<int64_t>(rng.NextBounded(1u << 30)))};
}

DmlCommand ChainInsert(Rng& rng, size_t rows, bool misfits,
                       int* fresh_strings) {
  DmlCommand cmd;
  cmd.op = DmlOp::kInsert;
  cmd.columns = {"s", "a", "m", "w", "x"};
  for (size_t r = 0; r < rows; ++r) {
    cmd.rows.push_back(ChainRow(rng, misfits, fresh_strings));
  }
  return cmd;
}

void ExpectSameStats(const ColumnStats& got, const ColumnStats& want,
                     const std::string& label) {
  const ColumnStatsImage a = got.ToImage();
  const ColumnStatsImage b = want.ToImage();
  EXPECT_EQ(a.row_count, b.row_count) << label;
  EXPECT_EQ(a.distinct_count, b.distinct_count) << label;
  EXPECT_EQ(a.min_code, b.min_code) << label;
  EXPECT_EQ(a.max_code, b.max_code) << label;
  EXPECT_EQ(a.width, b.width) << label;
  EXPECT_EQ(a.hist_bits, b.hist_bits) << label;
  EXPECT_EQ(a.bucket_rows, b.bucket_rows) << label;
  EXPECT_EQ(a.bucket_distinct, b.bucket_distinct) << label;
  EXPECT_EQ(got.DistinctSketch(), want.DistinctSketch()) << label;
  for (int bits = 0; bits <= b.width; ++bits) {
    EXPECT_EQ(got.EstimateDistinctPrefixes(bits),
              want.EstimateDistinctPrefixes(bits))
        << label << " prefix " << bits;
  }
}

void ExpectSameSlices(const ByteSliceColumn& got, const ByteSliceColumn& want,
                      const std::string& label) {
  ASSERT_EQ(got.width(), want.width()) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_EQ(got.num_slices(), want.num_slices()) << label;
  for (int j = 0; j < got.num_slices() && got.size() > 0; ++j) {
    EXPECT_EQ(std::memcmp(got.slice(j), want.slice(j), got.size()), 0)
        << label << " slice " << j;
  }
}

// Field-by-field equality of a served image with a full build, including
// the layouts a read would use (installed by extension or built lazily).
void ExpectSameImage(const Table& got, const Table& want,
                     const std::string& label) {
  ASSERT_EQ(got.row_count(), want.row_count()) << label;
  ASSERT_EQ(got.column_names(), want.column_names()) << label;
  for (const std::string& name : want.column_names()) {
    const std::string where = label + " column " + name;
    const EncodedColumn& a = got.column(name);
    const EncodedColumn& b = want.column(name);
    ASSERT_EQ(a.width(), b.width()) << where;
    ASSERT_EQ(a.type(), b.type()) << where;
    ASSERT_EQ(a.size(), b.size()) << where;
    EXPECT_EQ(std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()), 0)
        << where << " codes";
    EXPECT_EQ(got.domain_base(name), want.domain_base(name)) << where;
    ASSERT_EQ(got.HasDictionary(name), want.HasDictionary(name)) << where;
    if (want.HasDictionary(name)) {
      EXPECT_EQ(got.dictionary(name).values(), want.dictionary(name).values())
          << where;
    }
    ExpectSameStats(got.stats(name), ColumnStats::Build(b), where + " stats");
    ExpectSameSlices(got.byteslice(name), ByteSliceColumn::Build(b),
                     where + " byteslice");
    // A scan over the served layout agrees with the codes.
    const Code literal = b.Get(b.size() / 2);
    BitVector hits;
    ByteSliceScan(got.byteslice(name), CompareOp::kLess, literal, &hits);
    size_t want_hits = 0, got_hits = 0;
    for (size_t i = 0; i < b.size(); ++i) {
      want_hits += b.Get(i) < literal ? 1 : 0;
      got_hits += hits.Get(i) ? 1 : 0;
    }
    EXPECT_EQ(got_hits, want_hits) << where << " scan";
  }
}

// Everything a reader of `table` can see: codes, dictionaries and the
// cached layouts, each up to the table's last row.
uint64_t ImageChecksum(const Table& table) {
  uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  };
  for (const std::string& name : table.column_names()) {
    const EncodedColumn& column = table.column(name);
    mix(column.raw_data(), column.byte_size());
    if (table.HasDictionary(name)) {
      for (const std::string& v : table.dictionary(name).values()) {
        mix(v.data(), v.size());
      }
    }
    if (const ColumnStats* stats = table.cached_stats(name)) {
      const ColumnStatsImage image = stats->ToImage();
      mix(&image.distinct_count, sizeof(image.distinct_count));
      mix(image.bucket_rows.data(), image.bucket_rows.size() * 8);
      mix(image.bucket_distinct.data(), image.bucket_distinct.size() * 8);
    }
    if (const ByteSliceColumn* bs = table.cached_byteslice(name)) {
      for (int j = 0; j < bs->num_slices(); ++j) mix(bs->slice(j), bs->size());
    }
  }
  return hash;
}

// Seeded random DML with every fallback in the mix: after each step the
// served image must equal BuildMergedTable over the same delta plus fresh
// stats and ByteSlices, and every image served earlier must be unchanged.
TEST(MergeChainTest, ExtendedImagesEqualFullBuilds) {
  std::map<MergeFallback, int> fallbacks;
  int extends = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    delta::TableVersion version(ChainTable(1500, seed));
    Rng rng(seed * 7919);
    int fresh_strings = 0;
    std::vector<std::pair<std::shared_ptr<const Table>, uint64_t>> held;
    for (int step = 0; step < 160; ++step) {
      const std::string label =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const uint64_t pick = rng.NextBounded(100);
      if (pick < 10) {
        // Large fitting batches run the append room out.
        ASSERT_TRUE(version
                        .Apply(ChainInsert(rng, 300 + rng.NextBounded(300),
                                           /*misfits=*/false, &fresh_strings))
                        .ok());
      } else if (pick < 60) {
        ASSERT_TRUE(version
                        .Apply(ChainInsert(rng, 1 + rng.NextBounded(20),
                                           /*misfits=*/true, &fresh_strings))
                        .ok());
      } else if (pick < 68) {
        ASSERT_TRUE(version
                        .Apply(Where(DmlOp::kDelete, "", "m", DmlCompareOp::kEq,
                                     DmlValue::Int(static_cast<int64_t>(
                                         rng.NextBounded(1000)))))
                        .ok());
      } else if (pick < 74) {
        DmlCommand update = Where(DmlOp::kUpdate, "", "w", DmlCompareOp::kLt,
                                  DmlValue::Int(static_cast<int64_t>(
                                      rng.NextBounded(300))));
        update.columns = {"m"};
        update.rows = {{DmlValue::Int(static_cast<int64_t>(
            rng.NextBounded(1000)))}};
        ASSERT_TRUE(version.Apply(update).ok());
      } else if (pick < 77) {
        // Matches nothing, but interns its SET string into the overflow.
        DmlCommand update = Where(DmlOp::kUpdate, "", "m", DmlCompareOp::kGt,
                                  DmlValue::Int(5000));
        update.columns = {"s"};
        update.rows = {{DmlValue::String("nomatch" +
                                         std::to_string(fresh_strings++))}};
        ASSERT_TRUE(version.Apply(update).ok());
      } else if (pick < 83) {
        const delta::TableVersion::CompactionJob job = version.BeginCompaction();
        if (!job.snap.empty()) {
          delta::MergedTable merged = delta::BuildMergedTable(*job.base, job.snap);
          // The compactor's save builds every layout on the merged table.
          for (const std::string& name : merged.table->column_names()) {
            merged.table->stats(name);
            merged.table->byteslice(name);
          }
          ASSERT_TRUE(version.Publish(job, std::move(merged)));
        }
      }
      delta::TableVersion::MergeReport report;
      const std::shared_ptr<const Table> image = version.Snapshot(&report);
      if (report.kind == MergeKind::kExtended) ++extends;
      if (report.kind == MergeKind::kFullBuild) ++fallbacks[report.fallback];

      const delta::TableVersion::CompactionJob now = version.BeginCompaction();
      if (now.snap.empty()) {
        EXPECT_EQ(image, now.base) << label;
      } else {
        const delta::MergedTable want =
            delta::BuildMergedTable(*now.base, now.snap);
        ExpectSameImage(*image, *want.table, label);
        if (HasFatalFailure()) return;
      }
      for (const auto& [old, checksum] : held) {
        EXPECT_EQ(ImageChecksum(*old), checksum) << label << " held image";
      }
      if (held.size() >= 8) held.erase(held.begin());
      held.emplace_back(image, ImageChecksum(*image));
    }
  }
  EXPECT_GT(extends, 100);
  for (MergeFallback reason :
       {MergeFallback::kNoImage, MergeFallback::kTombstone,
        MergeFallback::kWidthOrBase, MergeFallback::kDictionary,
        MergeFallback::kCapacity}) {
    EXPECT_GT(fallbacks[reason], 0) << delta::MergeFallbackName(reason);
  }
}

// Readers pin images and re-check them bit for bit while a writer inserts
// and compaction publishes (run under TSan and ASan+UBSan by
// scripts/run_sanitizers.sh).
TEST(MergeChainTest, PinnedImagesNeverChangeUnderWritesAndPublish) {
  delta::TableVersion version(ChainTable(4000, 9));
  std::atomic<bool> stop{false};
  std::atomic<int> extends{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    Rng rng(21);
    int fresh = 0;
    for (int i = 0; i < 400; ++i) {
      if (!version.Apply(ChainInsert(rng, 8, /*misfits=*/false, &fresh)).ok()) {
        ++failures;
      }
      if (i % 50 == 49) {
        version.Apply(Where(DmlOp::kDelete, "", "m", DmlCompareOp::kEq,
                            DmlValue::Int(static_cast<int64_t>(i))));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop = true;
  });
  threads.emplace_back([&] {
    while (!stop) {
      const delta::TableVersion::CompactionJob job = version.BeginCompaction();
      if (!job.snap.empty()) {
        delta::MergedTable merged = delta::BuildMergedTable(*job.base, job.snap);
        merged.table->stats("m");
        merged.table->byteslice("m");
        version.Publish(job, std::move(merged));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });
  for (int reader = 0; reader < 2; ++reader) {
    threads.emplace_back([&] {
      std::vector<std::pair<std::shared_ptr<const Table>, uint64_t>> held;
      while (!stop) {
        delta::TableVersion::MergeReport report;
        std::shared_ptr<const Table> image = version.Snapshot(&report);
        if (report.kind == MergeKind::kExtended) ++extends;
        // Both readers build the same layouts before checksumming, so a
        // layout the other reader adds later cannot change a checksum.
        for (const char* name : {"s", "a", "m", "w"}) {
          image->stats(name);
          image->byteslice(name);
        }
        const uint64_t checksum = ImageChecksum(*image);
        std::this_thread::yield();
        if (ImageChecksum(*image) != checksum) ++failures;
        for (const auto& [old, sum] : held) {
          if (ImageChecksum(*old) != sum) ++failures;
        }
        if (held.size() >= 4) held.erase(held.begin());
        held.emplace_back(std::move(image), checksum);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(extends.load(), 0);
  // The final image still equals a full build.
  const std::shared_ptr<const Table> image = version.Snapshot();
  const delta::TableVersion::CompactionJob job = version.BeginCompaction();
  if (!job.snap.empty()) {
    ExpectSameImage(*image, *delta::BuildMergedTable(*job.base, job.snap).table,
                    "final");
  }
}

}  // namespace
}  // namespace mcsort
