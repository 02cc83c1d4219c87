#include "mcsort/engine/query.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/timer.h"
#include "mcsort/engine/window.h"
#include "mcsort/scan/bitvector.h"
#include "mcsort/scan/lookup.h"
#include "mcsort/sort/external/external_sort.h"
#include "mcsort/storage/dictionary.h"

namespace mcsort {
namespace {

// Builds an encoded column from per-group int64 values (for result
// ordering over aggregates). Descending keys are realized by the massage
// layer's complement, so encoding is always ascending.
EncodedColumn EncodeValues(const std::vector<int64_t>& values) {
  std::vector<int64_t> native = values;
  return EncodeDomain(native).codes;
}

int WidestBank(const MassagePlan& plan) {
  int widest = 0;
  for (const Round& round : plan.rounds()) {
    widest = std::max(widest, round.bank);
  }
  return widest;
}

}  // namespace

QueryExecutor::QueryExecutor(const Table& table, const ExecutorOptions& options)
    : table_(table),
      options_(options),
      model_(options.params),
      sorter_(options.pool) {}

QueryExecutor::SortAttrs QueryExecutor::ResolveSortAttrs(
    const QuerySpec& spec) const {
  SortAttrs attrs;
  if (!spec.group_by.empty()) {
    MCSORT_CHECK(spec.order_by.empty() && spec.partition_by.empty());
    for (const std::string& name : spec.group_by) {
      attrs.names.push_back(name);
      attrs.orders.push_back(SortOrder::kAscending);
    }
    attrs.permute_prefix = static_cast<int>(attrs.names.size());
  } else if (!spec.partition_by.empty()) {
    MCSORT_CHECK(spec.order_by.empty());
    MCSORT_CHECK(!spec.window_order_column.empty());
    for (const std::string& name : spec.partition_by) {
      attrs.names.push_back(name);
      attrs.orders.push_back(SortOrder::kAscending);
    }
    attrs.permute_prefix = static_cast<int>(attrs.names.size());
    attrs.names.push_back(spec.window_order_column);
    attrs.orders.push_back(SortOrder::kAscending);
  } else {
    MCSORT_CHECK(!spec.order_by.empty());
    for (const auto& [name, order] : spec.order_by) {
      attrs.names.push_back(name);
      attrs.orders.push_back(order);
    }
    attrs.permute_prefix = 0;  // ORDER BY attribute order is fixed
  }
  // Distributed shards sort in the coordinator-pinned canonical order so
  // their streams merge; the plan search must not permute it.
  if (spec.fixed_column_order) attrs.permute_prefix = 0;
  return attrs;
}

SortInstanceStats QueryExecutor::InstanceStats(const QuerySpec& spec,
                                               uint64_t row_count) const {
  const SortAttrs attrs = ResolveSortAttrs(spec);
  SortInstanceStats stats;
  stats.n = row_count;
  stats.merge_fan_in = spec.merge_fan_in;
  for (const std::string& name : attrs.names) {
    stats.columns.push_back(&table_.stats(name));
  }
  return stats;
}

size_t QueryExecutor::EstimatePlanScratchBytes(const MassagePlan& plan,
                                               uint64_t rows) {
  // Per-row high-water mark: the oid permutation plus its merge scratch,
  // one massaged key column per round (they coexist — massaging is
  // up-front), and the widest round's gather + widen + merge buffers.
  size_t per_row = 2 * sizeof(Oid);
  int max_bank = 0;
  for (const Round& round : plan.rounds()) {
    per_row += static_cast<size_t>(round.bank) / 8;
    max_bank = std::max(max_bank, round.bank);
  }
  per_row += 3 * static_cast<size_t>(max_bank) / 8;
  return static_cast<size_t>(rows) * per_row;
}

ExecResult QueryExecutor::Execute(const QuerySpec& spec,
                                  const ExecContext& ctx) {
  const PlanHint* hint = ctx.hint();
  const bool stoppable = ctx.stoppable();
  ExecResult out;
  QueryResult& result = out.result;
  result.input_rows = table_.row_count();
  // Phase-boundary stop check: partial payloads stay in the result (their
  // timings are real) but callers must discard them on a non-ok status.
  const auto stopped = [&]() {
    if (!stoppable) return false;
    out.status = ctx.StopStatus();
    return !out.status.ok();
  };
  Timer timer;

  // ------------------------------------------------------------------
  // 1. Filters: ByteSlice scans, conjunctive, then oid extraction.
  // ------------------------------------------------------------------
  std::vector<Oid> filtered_oids;
  bool has_filter = !spec.filters.empty();
  if (has_filter) {
    timer.Restart();
    BitVector acc;
    BitVector scratch;
    for (size_t f = 0; f < spec.filters.size(); ++f) {
      const FilterSpec& filter = spec.filters[f];
      const ByteSliceColumn& bs = table_.byteslice(filter.column);
      BitVector* target = f == 0 ? &acc : &scratch;
      if (filter.is_between) {
        ByteSliceScanBetween(bs, filter.literal, filter.literal2, target,
                             options_.pool, &ctx);
      } else {
        ByteSliceScan(bs, filter.op, filter.literal, target, options_.pool,
                      &ctx);
      }
      if (f > 0) acc.And(scratch);
    }
    acc.ToOidList(&filtered_oids);
    result.scan_seconds = timer.Seconds();
    if (stopped()) return out;
  }
  const uint64_t n =
      has_filter ? filtered_oids.size() : table_.row_count();
  result.filtered_rows = n;
  if (n == 0) return out;

  // ------------------------------------------------------------------
  // 2. Materialize the sort attributes (lookup by filtered oids).
  // ------------------------------------------------------------------
  const SortAttrs attrs = ResolveSortAttrs(spec);
  timer.Restart();
  std::vector<EncodedColumn> sort_columns;
  std::vector<const EncodedColumn*> sort_column_ptrs;
  sort_columns.reserve(attrs.names.size());
  for (const std::string& name : attrs.names) {
    if (has_filter) {
      EncodedColumn gathered;
      GatherColumn(table_.column(name), filtered_oids.data(), n, &gathered,
                   options_.pool, &ctx);
      sort_columns.push_back(std::move(gathered));
    }
  }
  for (size_t c = 0; c < attrs.names.size(); ++c) {
    sort_column_ptrs.push_back(has_filter ? &sort_columns[c]
                                          : &table_.column(attrs.names[c]));
  }
  result.materialize_seconds = timer.Seconds();
  if (stopped()) return out;

  // ------------------------------------------------------------------
  // 3. Plan, admit, sort — one pass over the materialized columns. Each
  //    attempt plans (ROGA on the calibrated model, a usable hint, or the
  //    baseline P0), routes an over-budget plan to spill or to a narrower
  //    plan, and sorts. Graceful degradation never re-runs steps 1-2: the
  //    router hands its already-searched narrow plan to the next attempt,
  //    and an in-sort kResourceExhausted (an injected allocation failure)
  //    halves the bank cap (floor 16 bits) and re-plans. The cap strictly
  //    decreases, so there are at most three attempts.
  // ------------------------------------------------------------------
  std::vector<int> widths;
  for (const EncodedColumn* col : sort_column_ptrs) {
    widths.push_back(col->width());
  }
  int total_width = 0;
  for (int w : widths) total_width += w;
  const auto search_options = [&](int max_bank) {
    SearchOptions search;
    search.rho = options_.rho;
    search.min_budget_seconds = options_.min_budget_seconds;
    search.permute_columns = attrs.permute_prefix > 1;
    search.permute_prefix = attrs.permute_prefix;
    search.max_bank = max_bank;
    search.ctx = stoppable ? &ctx : nullptr;
    return search;
  };
  // Exact cached-plan reuse: a width-compatible hint skips ROGA (and its
  // stats lookups) entirely — the plan-cache hit path of the service.
  bool hint_usable =
      options_.use_massage && hint != nullptr && hint->plan != nullptr &&
      hint->plan->IsValid() && hint->plan->total_width() == total_width &&
      hint->column_order != nullptr &&
      hint->column_order->size() == attrs.names.size();
  if (hint_usable) {
    std::vector<bool> seen(attrs.names.size(), false);
    for (int idx : *hint->column_order) {
      if (idx < 0 || static_cast<size_t>(idx) >= seen.size() ||
          seen[static_cast<size_t>(idx)]) {
        hint_usable = false;
        break;
      }
      seen[static_cast<size_t>(idx)] = true;
    }
  }

  const auto count_search = [&result](const SearchResult& found) {
    result.plans_costed += found.plans_costed;
    result.search_truncated |= found.truncated;
  };
  int bank_cap = 0;  // 0 = unrestricted
  MassagePlan plan;
  std::vector<int> order;
  // Plans the next attempt under bank cap `cap`: the baseline P0, the hint
  // (a degraded attempt honors it only if it fits the cap), or ROGA.
  const auto plan_under = [&](int cap) {
    bank_cap = cap;
    if (!options_.use_massage) {
      plan = MassagePlan::ColumnAtATime(widths);
      order.resize(attrs.names.size());
      std::iota(order.begin(), order.end(), 0);
    } else if (hint_usable && (cap == 0 || WidestBank(*hint->plan) <= cap)) {
      plan = *hint->plan;
      order = *hint->column_order;
    } else {
      timer.Restart();
      SearchResult found =
          RogaSearch(model_, InstanceStats(spec, n), search_options(cap));
      count_search(found);
      plan = std::move(found.plan);
      order = std::move(found.column_order);
      result.plan_seconds += timer.Seconds();
    }
  };
  plan_under(0);
  std::vector<MassageInput> inputs;
  MultiColumnSortResult sorted;
  for (;;) {
    result.plan = plan;
    result.column_order = order;
    result.degraded = bank_cap > 0;
    result.bank_cap = bank_cap;
    if (stopped()) return out;

    inputs.clear();
    for (int idx : order) {
      inputs.push_back({sort_column_ptrs[static_cast<size_t>(idx)],
                        attrs.orders[static_cast<size_t>(idx)]});
    }
    // The next narrower cap, or 0 when nothing narrower exists (16-bit
    // banks hold every total width) or the baseline plan is fixed.
    const int widest = WidestBank(plan);
    const int narrower = options_.use_massage && widest > 16 ? widest / 2 : 0;

    // Scratch admission against the context's soft budget. An over-budget
    // plan has two ways out, cost-routed here:
    //   * degrade-by-narrowing: re-plan under a halved bank cap (shrinks
    //     scratch, keeps the sort in memory);
    //   * spill: slice the input into budget-sized runs, sort each in
    //     memory under the SAME plan, and merge the run files externally
    //     (sort/external/) — bit-identical output, bounded scratch.
    // The router compares ROGA's estimate of the best narrowed plan against
    // the current plan plus the calibrated spill surcharge
    // (CostModel::SpillCycles), and spills when that arm is cheaper or when
    // no narrower plan exists.
    size_t spill_slice_rows = 0;
    if (ctx.scratch_budget_bytes() > 0 &&
        EstimatePlanScratchBytes(plan, n) > ctx.scratch_budget_bytes()) {
      const size_t per_row = EstimatePlanScratchBytes(plan, 1);
      const size_t slice_rows =
          per_row > 0 ? ctx.scratch_budget_bytes() / per_row : 0;
      const bool key_fits = external::CanExternalSort(inputs);
      const bool spill_viable =
          options_.spill.enabled && slice_rows > 0 && slice_rows < n;
      // The spill arm was viable except for the key width: flag it instead
      // of silently degrading, so operators can see why the budget knob
      // stopped helping on wide-key workloads.
      if (spill_viable && !key_fits) result.spill_key_too_wide = true;
      if (spill_viable && key_fits && narrower > 0) {
        // Both arms are live: cost them. The spill arm's in-memory part is
        // the current plan (each slice sorts under it); the degrade arm is
        // the best plan under the halved cap, which becomes the next
        // attempt's plan if it wins.
        timer.Restart();
        const SortInstanceStats stats = InstanceStats(spec, n);
        SearchResult narrow =
            RogaSearch(model_, stats, search_options(narrower));
        count_search(narrow);
        const size_t num_runs = (n + slice_rows - 1) / slice_rows;
        const double spill_cycles =
            model_.EstimateCycles(plan, stats) +
            model_.SpillCycles(n, static_cast<int>(num_runs), total_width);
        result.plan_seconds += timer.Seconds();
        if (narrow.plan.IsValid() && narrow.estimated_cycles < spill_cycles) {
          bank_cap = narrower;
          plan = std::move(narrow.plan);
          order = std::move(narrow.column_order);
          continue;
        }
      }
      if (!spill_viable || !key_fits) {
        if (narrower > 0) {
          plan_under(narrower);
          continue;
        }
        out.status = Status::ResourceExhausted(
            result.spill_key_too_wide
                ? "composite sort key is " + std::to_string(total_width) +
                      " bits; external merge caps at 128 — "
                      "degrade-by-narrowing only"
                : "plan scratch estimate over budget");
        return out;
      }
      spill_slice_rows = slice_rows;
    }
    if (stopped()) return out;

    // Multi-column sorting (the paper's highlighted phase) — in memory, or
    // through run files when the admission router chose to spill.
    timer.Restart();
    if (spill_slice_rows > 0) {
      external::ExternalSortOptions ext_options;
      ext_options.dir = options_.spill.dir;
      ext_options.slice_rows = spill_slice_rows;
      ext_options.block_rows = options_.spill.block_rows;
      ext_options.prefetch = options_.spill.prefetch;
      ext_options.io_threads = options_.spill.io_threads;
      external::ExternalSorter ext(&sorter_, ext_options);
      external::ExternalSortResult spilled = ext.Sort(inputs, plan, ctx);
      result.spilled = true;
      result.spill_runs = spilled.num_runs;
      result.spill_bytes = spilled.run_bytes;
      result.spill_run_gen_seconds = spilled.run_gen_seconds;
      result.spill_merge_seconds = spilled.merge_seconds;
      sorted.status = std::move(spilled.status);
      sorted.oids = std::move(spilled.oids);
      sorted.groups = std::move(spilled.groups);
    } else {
      sorted = sorter_.Sort(inputs, plan, ctx);
    }
    // The paper's accounting: only sorts over MULTIPLE attributes count as
    // multi-column sorting; a single-attribute sort (e.g. Q13's GROUP BY on
    // one column) is "single-column sorting" and belongs to the rest
    // bucket.
    if (attrs.names.size() > 1) {
      result.mcs_seconds += timer.Seconds();
    } else {
      result.post_seconds += timer.Seconds();
    }
    if (sorted.status.code == StatusCode::kResourceExhausted &&
        narrower > 0) {
      ctx.ClearResourceFault();  // consume an injected allocation failure
      plan_under(narrower);
      continue;
    }
    break;
  }
  if (!sorted.status.ok()) {
    out.status = sorted.status;
    result.sort_profile = std::move(sorted);
    return out;
  }
  result.num_groups = sorted.groups.count();

  // Base-table oids in output order: the sort permutation itself, or its
  // composition with the filter's oid list (the permutation is then dead).
  if (has_filter) {
    result.result_oids.resize(n);
    for (uint64_t r = 0; r < n; ++r) {
      result.result_oids[r] = filtered_oids[sorted.oids[r]];
    }
    std::vector<Oid>().swap(sorted.oids);
  } else {
    result.result_oids = std::move(sorted.oids);
  }

  // ------------------------------------------------------------------
  // 4. Post-processing: aggregation / window rank / result ordering.
  // ------------------------------------------------------------------
  timer.Restart();
  std::vector<AggregateResult> agg_results;
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.op == AggOp::kCount || agg.column.empty()) {
      agg_results.push_back(CountGroups(sorted.groups));
      continue;
    }
    EncodedColumn measure;
    GatherColumn(table_.column(agg.column), result.result_oids.data(), n,
                 &measure, options_.pool, &ctx);
    agg_results.push_back(AggregateGroups(
        agg.op, measure, table_.domain_base(agg.column), sorted.groups));
  }
  for (const AggregateResult& ar : agg_results) {
    result.aggregate_values.push_back(ar.values);
    if (ar.op == AggOp::kAvg) {
      result.aggregate_avg.insert(result.aggregate_avg.end(), ar.avg.begin(),
                                  ar.avg.end());
    }
  }

  if (!spec.partition_by.empty()) {
    // Partitions: refine groups over the partition attributes only, then
    // rank by the window order attribute within each partition.
    Segments partitions = Segments::Whole(n);
    EncodedColumn gathered;
    for (const std::string& name : spec.partition_by) {
      GatherColumn(table_.column(name), result.result_oids.data(), n,
                   &gathered, options_.pool, &ctx);
      Segments refined;
      FindGroups(gathered, partitions, &refined, options_.pool, &ctx);
      partitions = std::move(refined);
      if (stopped()) {
        result.post_seconds += timer.Seconds();
        result.sort_profile = std::move(sorted);
        return out;
      }
    }
    result.num_groups = partitions.count();
    EncodedColumn window_key;
    GatherColumn(table_.column(spec.window_order_column),
                 result.result_oids.data(), n, &window_key, options_.pool,
                 &ctx);
    result.ranks = RankOverPartitions(partitions, window_key);
  }
  result.post_seconds += timer.Seconds();
  if (stopped()) {
    result.sort_profile = std::move(sorted);
    return out;
  }

  // ------------------------------------------------------------------
  // 5. Result ordering over the aggregated groups (e.g. Q13/Q16's ORDER
  //    BY over GROUP BY output): itself a (small) multi-column sort.
  // ------------------------------------------------------------------
  if (!spec.result_order.empty()) {
    const size_t groups = sorted.groups.count();
    std::vector<EncodedColumn> keys;
    std::vector<SortOrder> key_orders;
    for (const ResultOrderSpec& ros : spec.result_order) {
      std::vector<int64_t> values(groups);
      if (ros.key.rfind("agg:", 0) == 0) {
        const size_t idx =
            static_cast<size_t>(std::stoi(ros.key.substr(4)));
        MCSORT_CHECK(idx < agg_results.size());
        values = agg_results[idx].values;
      } else {
        // Per-group representative of a group-by attribute.
        const EncodedColumn& base = table_.column(ros.key);
        for (size_t g = 0; g < groups; ++g) {
          values[g] = static_cast<int64_t>(
              base.Get(result.result_oids[sorted.groups.begin(g)]));
        }
      }
      keys.push_back(EncodeValues(values));
      key_orders.push_back(ros.order);
    }
    std::vector<MassageInput> order_inputs;
    for (size_t k = 0; k < keys.size(); ++k) {
      order_inputs.push_back({&keys[k], key_orders[k]});
    }
    std::vector<int> order_widths;
    for (const EncodedColumn& key : keys) order_widths.push_back(key.width());
    MassagePlan order_plan = MassagePlan::ColumnAtATime(order_widths);
    if (options_.use_massage) {
      timer.Restart();
      SortInstanceStats stats;
      stats.n = groups;
      std::vector<ColumnStats> key_stats;
      key_stats.reserve(keys.size());
      for (const EncodedColumn& key : keys) {
        // Sampled: these per-query key columns can be as large as the
        // group count, and planning must stay cheap (Sec. 5's whole point).
        key_stats.push_back(ColumnStats::BuildSampled(key, 1 << 15));
      }
      for (const ColumnStats& ks : key_stats) stats.columns.push_back(&ks);
      SearchOptions search;
      search.rho = options_.rho;
      search.min_budget_seconds = options_.min_budget_seconds;
      search.max_bank = bank_cap;  // degraded runs stay under the cap
      search.ctx = stoppable ? &ctx : nullptr;
      SearchResult found = RogaSearch(model_, stats, search);
      count_search(found);
      order_plan = std::move(found.plan);
      result.plan_seconds += timer.Seconds();
    }
    timer.Restart();
    MultiColumnSortResult ordered =
        sorter_.Sort(order_inputs, order_plan, ctx);
    result.mcs_seconds += timer.Seconds();
    if (!ordered.status.ok()) {
      out.status = ordered.status;
      result.sort_profile = std::move(sorted);
      return out;
    }
    result.result_group_order.assign(ordered.oids.begin(),
                                     ordered.oids.end());
  }

  result.sort_profile = std::move(sorted);
  return out;
}

}  // namespace mcsort
