// Declarative query specs and the executor that runs them against a
// (WideTable-style denormalized) Table — the paper's full pipeline:
//
//   ByteSlice scans (filters) -> oid list -> lookups materialize the sort
//   attributes -> plan search (ROGA over the calibrated cost model) ->
//   multi-column sort (massaged or column-at-a-time) -> aggregation /
//   window ranking / result ordering.
//
// The executor reports a per-phase time breakdown whose "multi-column
// sorting" bucket is exactly what Figures 1, 8, and 9 of the paper chart
// against the "scan + lookup + aggregation + single-column sorting" rest.
#ifndef MCSORT_ENGINE_QUERY_H_
#define MCSORT_ENGINE_QUERY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/cost/cost_model.h"
#include "mcsort/engine/aggregate.h"
#include "mcsort/engine/multi_column_sorter.h"
#include "mcsort/plan/roga.h"
#include "mcsort/scan/byteslice_scan.h"
#include "mcsort/storage/table.h"

namespace mcsort {

struct FilterSpec {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Code literal = 0;         // encoded
  bool is_between = false;  // when set: literal <= column <= literal2
  Code literal2 = 0;
};

struct AggregateSpec {
  AggOp op = AggOp::kCount;
  std::string column;  // empty for COUNT(*)
};

// Sort direction applied to a result-ordering attribute.
struct ResultOrderSpec {
  // Either the index of an aggregate ("agg:<i>") or a group-by attribute
  // name; the executor materializes a per-group column for it.
  std::string key;  // "agg:0", "agg:1", ... or a group-by column name
  SortOrder order = SortOrder::kAscending;
};

struct QuerySpec {
  std::string id;
  std::vector<FilterSpec> filters;

  // Exactly one of the following drives the multi-column sorting phase:
  // GROUP BY attributes (order-free: plan search may permute),
  std::vector<std::string> group_by;
  // ORDER BY base attributes with directions (order fixed),
  std::vector<std::pair<std::string, SortOrder>> order_by;
  // PARTITION BY attributes (order-free) + the window ORDER BY attribute.
  std::vector<std::string> partition_by;
  std::string window_order_column;  // used with partition_by (RANK())

  // Aggregates computed per group (GROUP BY queries).
  std::vector<AggregateSpec> aggregates;

  // Ordering of the aggregated result (e.g. TPC-H Q13/Q16's ORDER BY over
  // GROUP BY output). Executed as a second (small) multi-column sort.
  std::vector<ResultOrderSpec> result_order;

  // Distributed execution hooks (src/mcsort/dist/). When set, the GROUP
  // BY / PARTITION BY column order is NOT order-free: the sort runs in
  // spec order and ROGA must not permute it. The coordinator pins the
  // order on every shard so pre-sorted shard streams interleave into one
  // globally sorted stream — group contents are permutation-independent,
  // only the canonical emission order matters for the merge.
  bool fixed_column_order = false;
  // Fan-in of the coordinator merge this query's result feeds (0 = not a
  // shard of a distributed query). Threaded into SortInstanceStats so the
  // cost model adds the coordinator-merge term to every plan estimate —
  // the rho search budget then reflects the true end-to-end cost.
  int merge_fan_in = 0;
};

// Fluent construction of QuerySpecs — replaces the hand-rolled field
// assignments previously duplicated across tests and benches:
//
//   QuerySpec spec = QuerySpecBuilder("q13")
//                        .Filter("c", CompareOp::kLess, 30000)
//                        .GroupBy({"a", "b"})
//                        .Sum("m")
//                        .Count()
//                        .ResultOrder("agg:0", SortOrder::kDescending)
//                        .Build();
class QuerySpecBuilder {
 public:
  QuerySpecBuilder() = default;
  explicit QuerySpecBuilder(std::string id) { spec_.id = std::move(id); }

  QuerySpecBuilder& Filter(std::string column, CompareOp op, Code literal) {
    FilterSpec filter;
    filter.column = std::move(column);
    filter.op = op;
    filter.literal = literal;
    spec_.filters.push_back(std::move(filter));
    return *this;
  }
  QuerySpecBuilder& FilterBetween(std::string column, Code lo, Code hi) {
    FilterSpec filter;
    filter.column = std::move(column);
    filter.literal = lo;
    filter.is_between = true;
    filter.literal2 = hi;
    spec_.filters.push_back(std::move(filter));
    return *this;
  }
  QuerySpecBuilder& GroupBy(std::vector<std::string> columns) {
    spec_.group_by = std::move(columns);
    return *this;
  }
  // Appends one ORDER BY attribute (call once per attribute, in order).
  QuerySpecBuilder& OrderBy(std::string column,
                            SortOrder order = SortOrder::kAscending) {
    spec_.order_by.emplace_back(std::move(column), order);
    return *this;
  }
  QuerySpecBuilder& PartitionBy(std::vector<std::string> columns) {
    spec_.partition_by = std::move(columns);
    return *this;
  }
  QuerySpecBuilder& WindowOrder(std::string column) {
    spec_.window_order_column = std::move(column);
    return *this;
  }
  QuerySpecBuilder& Aggregate(AggOp op, std::string column) {
    spec_.aggregates.push_back({op, std::move(column)});
    return *this;
  }
  QuerySpecBuilder& Count() { return Aggregate(AggOp::kCount, ""); }
  QuerySpecBuilder& Sum(std::string column) {
    return Aggregate(AggOp::kSum, std::move(column));
  }
  // Appends one result-ordering key: "agg:<i>" or a group-by column name.
  QuerySpecBuilder& ResultOrder(std::string key,
                                SortOrder order = SortOrder::kAscending) {
    spec_.result_order.push_back({std::move(key), order});
    return *this;
  }

  QuerySpec Build() const { return spec_; }

 private:
  QuerySpec spec_;
};

struct QueryResult {
  size_t input_rows = 0;
  size_t filtered_rows = 0;
  size_t num_groups = 0;  // groups/partitions produced by the main sort

  // Phase timings (seconds).
  double scan_seconds = 0;         // predicate scans + oid extraction
  double materialize_seconds = 0;  // base-column lookups of sort attrs
  double plan_seconds = 0;         // ROGA search
  // Plans ROGA costed over every search of this query, and whether any
  // search stopped at kMaxPlansCosted (plan/roga.h).
  uint64_t plans_costed = 0;
  bool search_truncated = false;
  double mcs_seconds = 0;          // multi-column sorting (all instances)
  double post_seconds = 0;         // aggregation, ranking, decode

  // The main sort's chosen plan and column order, and its profile. The
  // profile's permutation is not kept: result_oids holds the sort order.
  MassagePlan plan;
  std::vector<int> column_order;
  MultiColumnSortResult sort_profile;

  // Graceful degradation under memory pressure: set when the executor
  // re-planned with a bank cap because the unrestricted plan's scratch
  // estimate exceeded the context's budget (or an allocation fault was
  // injected). `bank_cap` is the cap (bits) the final plan honored.
  // plan_seconds and mcs_seconds sum over every attempt.
  // Degraded results are bit-identical on the Lemma-1 invariants (group
  // bounds, sorted key order) — only the scratch footprint shrinks.
  bool degraded = false;
  int bank_cap = 0;

  // External-sort (spill) execution: set when the over-budget router chose
  // spilling run files over degrade-by-narrowing (cost-compared via
  // CostModel::SpillCycles). Spilled results are value-identical to the
  // in-memory path (same group bounds and attribute sequences; oids may
  // permute within full-key ties only — the Lemma-1 guarantee).
  // `spill_bytes` is the total run-file footprint written; all run files
  // are already unlinked by the time Execute returns.
  bool spilled = false;
  size_t spill_runs = 0;
  uint64_t spill_bytes = 0;
  double spill_run_gen_seconds = 0;
  double spill_merge_seconds = 0;
  // True when the over-budget router wanted to spill but the composite
  // sort key exceeds the external merge's 128-bit key cap — the plan fell
  // back to degrade-by-narrowing (or failed at the 16-bit floor). Typed
  // rather than silent: a refusal at the floor is kResourceExhausted with
  // the key width in its detail, and the service bumps
  // exec.spill.key_too_wide.
  bool spill_key_too_wide = false;

  // Result payloads (for verification and examples).
  std::vector<std::vector<int64_t>> aggregate_values;  // per aggregate spec
  std::vector<double> aggregate_avg;                   // for kAvg specs
  std::vector<uint32_t> ranks;      // window queries: rank per sorted row
  std::vector<Oid> result_oids;     // base-table oids in output order
  std::vector<uint32_t> result_group_order;  // group indices in result order

  double total_seconds() const {
    return scan_seconds + materialize_seconds + plan_seconds + mcs_seconds +
           post_seconds;
  }
  double rest_seconds() const {  // the paper's non-MCS bucket
    return scan_seconds + materialize_seconds + post_seconds;
  }
};

// Spill (external sort) configuration of one executor — the engine-level
// mirror of ExecOptions' MCSORT_SPILL_* knobs (common/options.h).
struct SpillConfig {
  bool enabled = true;
  std::string dir = "/tmp/mcsort-spill";
  // Double-buffered async block prefetch during the merge phase.
  bool prefetch = true;
  int io_threads = 2;
  size_t block_rows = size_t{1} << 16;
};

struct ExecutorOptions {
  // Enable code massaging: plan via ROGA. Disabled = the state-of-the-art
  // column-at-a-time baseline.
  bool use_massage = true;
  // ROGA time threshold (Appendix C); <= 0 disables the stopwatch.
  double rho = 0.001;
  // ROGA budget floor in seconds (SearchOptions::min_budget_seconds);
  // keeps small-instance searches meaningful. Exposed so the service
  // config and the rho benches sweep the same knobs.
  double min_budget_seconds = 200e-6;
  ThreadPool* pool = nullptr;
  // Cost-model parameters; pass calibrated values for best plans.
  CostParams params = CostParams::Default();
  // External-sort fallback for plans whose scratch estimate exceeds the
  // ExecContext budget (the alternative to degrade-by-narrowing).
  SpillConfig spill;
};

// Externally supplied planning context for one execution (the service
// layer's plan cache speaks this). All pointers are borrowed and must
// outlive the Execute call.
struct PlanHint {
  // Exact reuse: skip ROGA for the main sort and run this plan under this
  // column order. Ignored (falls back to search) unless the plan is valid
  // for the instance's widths and the order is a permutation of the sort
  // attributes.
  const MassagePlan* plan = nullptr;
  const std::vector<int>* column_order = nullptr;
};

// StatusOr-style outcome of one execution. On a non-ok status the
// QueryResult holds whatever phases completed (timings are valid; payloads
// are partial and must be discarded).
struct ExecResult {
  Status status;
  QueryResult result;
  bool ok() const { return status.ok(); }
};

class QueryExecutor {
 public:
  QueryExecutor(const Table& table, const ExecutorOptions& options);

  // Executes under `ctx` — the single entry point. The context carries the
  // cancellation token, deadline, scratch budget, fault injector, and the
  // plan hint (ExecContext::WithHint; only the main sort consults it — the
  // small, sampled-stats result-ordering sort always plans locally).
  //
  // Cancellation / deadline expiry / injected faults unwind at the next
  // morsel / merge-chunk / round boundary with a typed status. Scans and
  // lookups run once; plan, admission and sort then loop. When the chosen
  // plan's scratch estimate exceeds ctx.scratch_budget_bytes(), the router
  // either spills or takes the best plan under a halved bank cap (floor 16
  // bits); an allocation fault inside the sort halves the cap and re-plans.
  // See QueryResult::degraded and QueryResult::spilled.
  ExecResult Execute(const QuerySpec& spec, const ExecContext& ctx);

  // Scratch high-water estimate (bytes) for sorting `rows` rows under
  // `plan`: the oid permutation + merge scratch plus the widest round's
  // massage/gather/widen buffers. This is the quantity compared against
  // ExecContext::scratch_budget_bytes() by the degradation loop; public so
  // tests pick budgets that force (or just avoid) degradation.
  static size_t EstimatePlanScratchBytes(const MassagePlan& plan,
                                         uint64_t rows);

  // A lower bound on EstimatePlanScratchBytes over every plan of
  // `total_width` bits, under any bank cap: the plan of 16-bit rounds
  // attains it. When it exceeds the budget, no re-plan under a narrower
  // cap can fit, so the degradation loop refuses without searching.
  static size_t MinPlanScratchBytes(int total_width, uint64_t rows);

  // The sort-attribute statistics instance a query induces (exposed for
  // benchmarks that explore the plan space directly).
  SortInstanceStats InstanceStats(const QuerySpec& spec,
                                  uint64_t row_count) const;

  // The sort attributes a spec resolves to — which columns drive the
  // multi-column sort, their directions, and how many leading columns are
  // order-free. Public so the service layer derives plan-cache signatures
  // from exactly the executor's view of the spec.
  struct SortAttrs {
    std::vector<std::string> names;
    std::vector<SortOrder> orders;
    int permute_prefix = 0;  // how many leading columns are order-free
  };
  SortAttrs ResolveSortAttrs(const QuerySpec& spec) const;

 private:
  const Table& table_;
  ExecutorOptions options_;
  CostModel model_;
  MultiColumnSorter sorter_;
};

}  // namespace mcsort

#endif  // MCSORT_ENGINE_QUERY_H_
