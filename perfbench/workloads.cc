#include "workloads.h"

#include <algorithm>
#include <utility>

#include "mcsort/common/random.h"
#include "mcsort/workloads/generators.h"
#include "mcsort/workloads/workload.h"

namespace perfbench {
namespace {

using mcsort::AggOp;
using mcsort::Code;
using mcsort::CompareOp;
using mcsort::QuerySpec;
using mcsort::QuerySpecBuilder;
using mcsort::SortOrder;
using mcsort::Table;

// Scale of each workload at size_factor 1. Chosen so that one query costs
// milliseconds to tens of milliseconds on a 4-core host: enough queries
// fit into a run for a stable tail percentile.
constexpr double kTpchScale = 0.05;    // 300k lineitem_wide rows
constexpr double kAdhocScale = 0.01;   // 60k lineitem_wide rows
constexpr double kMixedRows = 1 << 20;  // ~1M rows in the written table

// More distinct ad-hoc queries than the plan cache's 1024 entries
// (PlanCacheOptions::capacity, 8 LRU shards of 128), cycled in order: an
// LRU shard that sees a cyclic scan larger than itself misses on every
// lookup. 1280 queries give each shard 160 on average; a shard left with
// 128 or fewer (about 0.3% each) would hit instead.
constexpr size_t kAdhocPool = 1280;

// Columns of the mixed_rw table and their domains: a narrow fact table
// of ~1M rows, as a dashboard's event log would be.
struct EventColumn {
  const char* name;
  uint64_t domain;
};
constexpr EventColumn kEventColumns[] = {
    {"region", 20},       {"product", 500}, {"customer", 100000},
    {"qty", 1000},        {"day", 365},
};

// Moves `name` out of a generated workload under the catalog name `as`.
void TakeTable(mcsort::Workload& source, const std::string& name,
               const std::string& as, Workload* out) {
  out->tables.push_back({as, std::move(source.tables.at(name))});
}

void AddQueries(const mcsort::Workload& source,
                const std::vector<std::string>& ids, const std::string& prefix,
                Workload* out) {
  for (const std::string& id : ids) {
    const mcsort::WorkloadQuery& query = source.query(id);
    out->reads.push_back(
        {prefix + id, prefix + query.table, query.spec});
  }
}

// tpch_warm — the paper's Fig. 9 query set replayed by two closed-loop
// clients after a warm-up, as a reporting dashboard would: TPC-H uniform
// Q1/Q3/Q9/Q13/Q18, TPC-H Zipf-skew Q2/Q7/Q10/Q16/Q18 and TPC-DS
// PARTITION BY Q36/Q67/Q70/Q86. The set spans key widths (2 to 7 sort
// columns), cardinalities (2 to ~300k groups) and skew. Stresses: scan,
// code massaging and the sort kernels (engine MCS), aggregation and RANK
// (engine post). Bypasses: plan search (every plan is cached after the
// warm-up, hit rate ~1) and the delta store (no data writes).
void MakeTpchWarm(uint64_t seed, double factor, Workload* out) {
  out->scale = kTpchScale * factor;
  mcsort::WorkloadOptions options;
  options.scale = out->scale;
  options.seed = seed;
  mcsort::Workload uniform = mcsort::MakeTpch(options);
  options.seed = seed + 1;
  options.skew = true;
  mcsort::Workload skew = mcsort::MakeTpch(options);
  options.seed = seed + 2;
  options.skew = false;
  mcsort::Workload tpcds = mcsort::MakeTpcds(options);

  AddQueries(uniform, {"Q1", "Q3", "Q9", "Q13", "Q18"}, "h_", out);
  AddQueries(skew, {"Q2", "Q7", "Q10", "Q16", "Q18"}, "hz_", out);
  AddQueries(tpcds, {"Q36", "Q67", "Q70", "Q86"}, "ds_", out);
  TakeTable(uniform, "lineitem_wide", "h_lineitem_wide", out);
  TakeTable(uniform, "customer_agg", "h_customer_agg", out);
  TakeTable(skew, "lineitem_wide", "hz_lineitem_wide", out);
  TakeTable(skew, "partsupp_wide", "hz_partsupp_wide", out);
  TakeTable(tpcds, "store_sales_wide", "ds_store_sales_wide", out);
}

// One seeded ad-hoc query over lineitem_wide's 23 encoded columns (1 to
// ~21 bits wide): ORDER BY, GROUP BY or PARTITION BY over 2-5 random
// columns with random directions, behind a range filter of random
// selectivity. The filter literal is part of the plan-cache signature, so
// every query is a distinct cache entry.
BenchQuery MakeAdhocQuery(const Table& table, const std::vector<Code>& max_code,
                          size_t index, mcsort::Rng& rng) {
  const std::vector<std::string>& names = table.column_names();
  std::vector<size_t> picks(names.size());
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  for (size_t i = picks.size() - 1; i > 0; --i) {
    std::swap(picks[i], picks[rng.NextBounded(i + 1)]);
  }
  const size_t columns = 2 + rng.NextBounded(4);

  const std::string id = "adhoc" + std::to_string(index);
  QuerySpecBuilder builder(id);
  const size_t filter_column = rng.NextBounded(names.size());
  const double selectivity = 0.05 + 0.95 * rng.NextDouble();
  builder.Filter(names[filter_column], CompareOp::kLessEq,
                 static_cast<Code>(selectivity *
                                   static_cast<double>(
                                       max_code[filter_column])));
  static const char* kMeasures[] = {"l_quantity", "l_extendedprice", "revenue",
                                    "l_discount"};
  switch (rng.NextBounded(3)) {
    case 0:  // ORDER BY: streams every qualifying oid back
      for (size_t c = 0; c < columns; ++c) {
        builder.OrderBy(names[picks[c]], rng.NextBounded(2) == 0
                                             ? SortOrder::kAscending
                                             : SortOrder::kDescending);
      }
      break;
    case 1: {  // GROUP BY with aggregates and, half the time, ORDER BY
      std::vector<std::string> group;
      for (size_t c = 0; c < columns; ++c) group.push_back(names[picks[c]]);
      builder.GroupBy(group).Count().Sum(kMeasures[rng.NextBounded(4)]);
      if (rng.NextBounded(2) == 0) {
        static const AggOp kOps[] = {AggOp::kMin, AggOp::kMax, AggOp::kAvg};
        builder.Aggregate(kOps[rng.NextBounded(3)],
                          kMeasures[rng.NextBounded(4)]);
      }
      if (rng.NextBounded(2) == 0) {
        builder.ResultOrder("agg:0", SortOrder::kDescending)
            .ResultOrder(group.front(), SortOrder::kAscending);
      }
      break;
    }
    default: {  // PARTITION BY ... with RANK() over the last column
      std::vector<std::string> partition;
      for (size_t c = 0; c + 1 < columns; ++c) {
        partition.push_back(names[picks[c]]);
      }
      builder.PartitionBy(partition).WindowOrder(names[picks[columns - 1]]);
      break;
    }
  }
  return {id, "lineitem_wide", builder.Build()};
}

// adhoc_cold — analysts' one-off queries: two closed-loop clients cycle
// through a seeded pool of distinct ad-hoc queries larger than the plan
// cache, so most lookups miss and ROGA plus the cost model run on nearly
// every query. ROGA's stopwatch (rho = 0.001 of the plan's estimated
// cost) keeps plan search near 1% of a query, so a faster plan search
// shows in plan.search_ms, not resolvably end to end. The table is small,
// so the wire (ORDER BY streams every qualifying oid) carries a large
// share of each query. Stresses: plan search, net, scan at varied
// selectivity. Bypasses: the plan cache's hit path and the delta store.
void MakeAdhocCold(uint64_t seed, double factor, Workload* out) {
  out->scale = kAdhocScale * factor;
  mcsort::WorkloadOptions options;
  options.scale = out->scale;
  options.seed = seed;
  mcsort::Workload source = mcsort::MakeTpch(options);
  TakeTable(source, "lineitem_wide", "lineitem_wide", out);
  const Table& table = out->tables.back().table;
  std::vector<Code> max_code;
  for (const std::string& name : table.column_names()) {
    const mcsort::EncodedColumn& column = table.column(name);
    Code max = 0;
    for (size_t r = 0; r < column.size(); ++r) {
      max = std::max(max, column.Get(r));
    }
    max_code.push_back(max);
  }
  mcsort::Rng rng(seed ^ 0xAD40C);
  for (size_t i = 0; i < kAdhocPool; ++i) {
    out->reads.push_back(MakeAdhocQuery(table, max_code, i, rng));
  }
}

// mixed_rw — a dashboard over a live event log: two closed-loop readers
// repeat a GROUP BY and an ORDER BY on one ~1M-row table while one
// open-loop writer sends small INSERT batches and a fixed share of
// DELETEs (Poisson arrivals at a fixed mean rate). The server runs with
// its on-disk catalog and background compaction, which folds the delta
// about every 3 s at this write rate. Stresses: the delta store (merge-at-scan on every
// read after a write, apply on every write) and compaction with its
// snapshot save (io). Bypasses: plan search (two cached shapes).
void MakeMixedRw(uint64_t seed, double factor, Workload* out) {
  const size_t rows = static_cast<size_t>(kMixedRows * factor);
  out->scale = static_cast<double>(rows) / 1e6;
  mcsort::Rng rng(seed ^ 0x3E1);
  Table table(rows);
  for (const EventColumn& column : kEventColumns) {
    table.AddColumn(column.name,
                    std::string(column.name) == "product"
                        ? mcsort::SkewedColumn(rows, column.domain,
                                               column.domain, 1.0, rng)
                        : mcsort::UniformColumn(rows, column.domain, rng));
  }
  out->tables.push_back({"events", std::move(table)});
  // Dashboard reads over a recent slice: each scans all ~1M rows (and
  // pays merge-at-scan after a write) but streams back only the slice.
  const BenchQuery by_product = {"events_by_region_product", "events",
                                 QuerySpecBuilder("events_by_region_product")
                                     .Filter("day", CompareOp::kLess, 73)
                                     .GroupBy({"region", "product"})
                                     .Count()
                                     .Sum("qty")
                                     .ResultOrder("region")
                                     .ResultOrder("product")
                                     .Build()};
  const BenchQuery recent = {"events_recent_by_customer", "events",
                             QuerySpecBuilder("events_recent_by_customer")
                                 .Filter("region", CompareOp::kLess, 2)
                                 .OrderBy("day", SortOrder::kDescending)
                                 .OrderBy("customer")
                                 .Build()};
  // Two GROUP BYs per ORDER BY: the median read then falls inside one
  // query's latency cluster instead of on the edge between two.
  out->reads = {by_product, recent, by_product};
  // The final check reads every live row.
  out->final_read = {"events_final", "events",
                     QuerySpecBuilder("events_final")
                         .GroupBy({"region", "product"})
                         .Count()
                         .Sum("qty")
                         .ResultOrder("region")
                         .ResultOrder("product")
                         .Build()};
  out->write_table = "events";
  out->write_rate_per_s = 40;
  out->compaction = true;
  out->compaction_interval_ms = 250;
  out->compaction_min_rows = 1024;
}

}  // namespace

const Table& Workload::table(const std::string& name) const {
  for (const NamedTable& t : tables) {
    if (t.name == name) return t.table;
  }
  return tables.front().table;
}

bool MakeWorkload(const std::string& name, uint64_t seed, double size_factor,
                  Workload* out) {
  out->name = name;
  if (name == "tpch_warm") {
    MakeTpchWarm(seed, size_factor, out);
  } else if (name == "adhoc_cold") {
    MakeAdhocCold(seed, size_factor, out);
  } else if (name == "mixed_rw") {
    MakeMixedRw(seed, size_factor, out);
  } else {
    return false;
  }
  for (const NamedTable& table : out->tables) {
    for (const BenchQuery& query : out->reads) {
      if (query.table == table.name) {
        out->first_queries.push_back(query);
        break;
      }
    }
  }
  return true;
}

mcsort::delta::DmlCommand MakeWrite(const Workload& workload, uint64_t seed,
                                    uint64_t index) {
  using mcsort::delta::DmlCommand;
  using mcsort::delta::DmlCompareOp;
  using mcsort::delta::DmlOp;
  using mcsort::delta::DmlValue;
  DmlCommand cmd;
  mcsort::Rng rng(seed * 0x9E3779B97F4A7C15ull + index);
  cmd.table = workload.write_table;
  // One write in ten deletes the rows of one customer (~10 rows); the
  // rest insert a batch of eight fresh rows.
  if (rng.NextBounded(10) == 0) {
    cmd.op = DmlOp::kDelete;
    cmd.has_predicate = true;
    cmd.predicate = {"customer", DmlCompareOp::kEq,
                     DmlValue::Int(static_cast<int64_t>(
                         rng.NextBounded(kEventColumns[2].domain)))};
    return cmd;
  }
  cmd.op = DmlOp::kInsert;
  for (const EventColumn& column : kEventColumns) {
    cmd.columns.push_back(column.name);
  }
  for (int r = 0; r < 8; ++r) {
    std::vector<DmlValue> row;
    for (const EventColumn& column : kEventColumns) {
      row.push_back(DmlValue::Int(
          static_cast<int64_t>(rng.NextBounded(column.domain))));
    }
    cmd.rows.push_back(std::move(row));
  }
  return cmd;
}

}  // namespace perfbench
