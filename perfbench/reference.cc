#include "reference.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory_resource>

namespace perfbench {
namespace {

using mcsort::AggOp;
using mcsort::Code;
using mcsort::CompareOp;
using mcsort::EncodedColumn;
using mcsort::QuerySpec;
using mcsort::SortOrder;
using mcsort::Table;

// A composite key packed big-endian into 256 bits, so that std::map keys
// need no allocation; packed keys compare like the column tuple.
using Key = std::array<uint64_t, 4>;

bool Compare(Code value, CompareOp op, Code literal) {
  switch (op) {
    case CompareOp::kLess: return value < literal;
    case CompareOp::kLessEq: return value <= literal;
    case CompareOp::kGreater: return value > literal;
    case CompareOp::kGreaterEq: return value >= literal;
    case CompareOp::kEq: return value == literal;
    case CompareOp::kNeq: return value != literal;
  }
  return false;
}

std::vector<const EncodedColumn*> Columns(const Table& table,
                                          const std::vector<std::string>& names) {
  std::vector<const EncodedColumn*> out;
  for (const std::string& name : names) out.push_back(&table.column(name));
  return out;
}

bool KeyFits(const std::vector<const EncodedColumn*>& columns) {
  int bits = 0;
  for (const EncodedColumn* column : columns) bits += column->width();
  return bits <= 256;
}

Key KeyOf(const std::vector<const EncodedColumn*>& columns, uint32_t oid) {
  Key key{};
  int bit = 0;  // next free bit, counted from the most significant end
  for (const EncodedColumn* column : columns) {
    int width = column->width();
    const Code v = column->Get(oid);
    while (width > 0) {
      const int offset = bit % 64;
      const int take = std::min(width, 64 - offset);
      const Code part = (v >> (width - take)) &
                        (take == 64 ? ~Code{0} : (Code{1} << take) - 1);
      key[bit / 64] |= part << (64 - offset - take);
      width -= take;
      bit += take;
    }
  }
  return key;
}

// -1 / 0 / +1 as tuple a sorts before / ties with / sorts after tuple b.
int CompareTuples(const std::vector<Code>& a, const std::vector<Code>& b,
                  const std::vector<SortOrder>& orders) {
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c] == b[c]) continue;
    const bool less = a[c] < b[c];
    const bool ascending =
        c >= orders.size() || orders[c] == SortOrder::kAscending;
    return less == ascending ? -1 : 1;
  }
  return 0;
}

// Per-key reference aggregates: COUNT plus, per aggregate spec, the SUM /
// MIN / MAX of native values (AVG keeps the SUM).
constexpr size_t kMaxAggregates = 8;
struct Accumulator {
  int64_t count = 0;
  std::array<int64_t, kMaxAggregates> values{};
  bool visited = false;  // a run of the server's answer carried this key
};

std::string Fail(const std::string& spec_id, const std::string& what) {
  return spec_id + ": " + what;
}

}  // namespace

std::string CheckAnswer(const Table& table, const QuerySpec& spec,
                        const mcsort::net::RemoteResult& result,
                        bool corrupt_reference) {
  if (!result.ok()) return Fail(spec.id, "query failed");
  const size_t n = table.row_count();

  // Reference filter over the benchmark's copy of the rows.
  std::vector<const EncodedColumn*> filter_columns;
  for (const mcsort::FilterSpec& f : spec.filters) {
    filter_columns.push_back(&table.column(f.column));
  }
  std::vector<uint8_t> qualifies(n, 0);
  size_t expected_rows = 0;
  for (size_t r = 0; r < n; ++r) {
    bool pass = true;
    for (size_t f = 0; f < spec.filters.size() && pass; ++f) {
      const mcsort::FilterSpec& filter = spec.filters[f];
      const Code v = filter_columns[f]->Get(r);
      pass = filter.is_between ? filter.literal <= v && v <= filter.literal2
                               : Compare(v, filter.op, filter.literal);
    }
    if (corrupt_reference && r == 0) pass = !pass;
    qualifies[r] = pass ? 1 : 0;
    expected_rows += pass ? 1 : 0;
  }

  // result_oids must be a permutation of the qualifying oids.
  const std::vector<uint32_t>& oids = result.result_oids;
  if (oids.size() != expected_rows ||
      result.summary.filtered_rows != expected_rows) {
    return Fail(spec.id, "returned " + std::to_string(oids.size()) +
                             " rows, reference has " +
                             std::to_string(expected_rows));
  }
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t oid : oids) {
    if (oid >= n || !qualifies[oid] || seen[oid]) {
      return Fail(spec.id, "result is not a permutation of the filtered oids");
    }
    seen[oid] = 1;
  }

  if (!spec.order_by.empty()) {
    std::vector<std::string> names;
    std::vector<SortOrder> orders;
    for (const auto& [name, order] : spec.order_by) {
      names.push_back(name);
      orders.push_back(order);
    }
    const auto columns = Columns(table, names);
    for (size_t r = 1; r < oids.size(); ++r) {
      for (size_t c = 0; c < columns.size(); ++c) {
        const Code a = columns[c]->Get(oids[r - 1]);
        const Code b = columns[c]->Get(oids[r]);
        if (a == b) continue;
        if ((a < b) != (orders[c] == SortOrder::kAscending)) {
          return Fail(spec.id, "ORDER BY output out of order at row " +
                                   std::to_string(r));
        }
        break;
      }
    }
    return "";
  }

  const bool grouped = !spec.group_by.empty();
  const auto key_columns =
      Columns(table, grouped ? spec.group_by : spec.partition_by);
  if (!KeyFits(key_columns)) return Fail(spec.id, "key too wide to check");

  // std::map reference over the qualifying rows.
  std::vector<const EncodedColumn*> measures;
  std::vector<int64_t> bases;
  for (const mcsort::AggregateSpec& agg : spec.aggregates) {
    const bool has_column = !agg.column.empty() && agg.op != AggOp::kCount;
    measures.push_back(has_column ? &table.column(agg.column) : nullptr);
    bases.push_back(has_column ? table.domain_base(agg.column) : 0);
  }
  if (spec.aggregates.size() > kMaxAggregates) {
    return Fail(spec.id, "too many aggregates to check");
  }
  // Nodes come from one arena: a reference over tens of thousands of
  // groups would otherwise spend most of its time in the allocator.
  std::pmr::monotonic_buffer_resource arena;
  std::pmr::map<Key, Accumulator> reference(&arena);
  for (size_t r = 0; r < n; ++r) {
    if (!qualifies[r]) continue;
    Accumulator& acc = reference[KeyOf(key_columns, static_cast<uint32_t>(r))];
    if (acc.count == 0) {
      for (size_t a = 0; a < spec.aggregates.size(); ++a) {
        const AggOp op = spec.aggregates[a].op;
        acc.values[a] = op == AggOp::kMin   ? INT64_MAX
                        : op == AggOp::kMax ? INT64_MIN
                                            : 0;
      }
    }
    ++acc.count;
    for (size_t a = 0; a < spec.aggregates.size(); ++a) {
      if (measures[a] == nullptr) continue;
      const int64_t v = bases[a] + static_cast<int64_t>(measures[a]->Get(r));
      int64_t& slot = acc.values[a];
      switch (spec.aggregates[a].op) {
        case AggOp::kMin: slot = std::min(slot, v); break;
        case AggOp::kMax: slot = std::max(slot, v); break;
        default: slot += v; break;
      }
    }
  }
  if (result.summary.num_groups != reference.size()) {
    return Fail(spec.id, "returned " +
                             std::to_string(result.summary.num_groups) +
                             " groups, reference has " +
                             std::to_string(reference.size()));
  }

  // Walk the runs of equal keys: one run per reference key, in any order.
  const EncodedColumn* window =
      grouped ? nullptr : &table.column(spec.window_order_column);
  std::vector<size_t> run_begin;
  std::vector<const Accumulator*> run_reference;
  Key previous{};
  for (size_t r = 0; r < oids.size(); ++r) {
    const Key key = KeyOf(key_columns, oids[r]);
    const bool new_run = r == 0 || key != previous;
    previous = key;
    if (new_run) {
      const auto it = reference.find(key);
      if (it == reference.end() || it->second.visited) {
        return Fail(spec.id, "group keys are not contiguous");
      }
      it->second.visited = true;
      run_reference.push_back(&it->second);
      run_begin.push_back(r);
    }
    if (window == nullptr) continue;
    // PARTITION BY: ascending window column and RANK() within the run.
    const size_t begin = run_begin.back();
    const Code v = window->Get(oids[r]);
    uint32_t rank = 1;
    if (r > begin) {
      const Code prev = window->Get(oids[r - 1]);
      if (prev > v) return Fail(spec.id, "window column out of order");
      rank = prev == v ? result.ranks[r - 1]
                       : static_cast<uint32_t>(r - begin + 1);
    }
    if (result.ranks.size() != oids.size() || result.ranks[r] != rank) {
      return Fail(spec.id, "RANK() differs at row " + std::to_string(r));
    }
  }
  if (!grouped) return "";

  // Aggregates per run, against the reference.
  const size_t groups = run_begin.size();
  if (groups == 0) return "";  // no qualifying row: nothing to aggregate
  if (result.aggregate_values.size() != spec.aggregates.size()) {
    return Fail(spec.id, "wrong number of aggregates");
  }
  size_t avg_index = 0;
  for (size_t a = 0; a < spec.aggregates.size(); ++a) {
    if (result.aggregate_values[a].size() != groups) {
      return Fail(spec.id, "wrong aggregate length");
    }
    const bool is_avg = spec.aggregates[a].op == AggOp::kAvg;
    for (size_t g = 0; g < groups; ++g) {
      const Accumulator& acc = *run_reference[g];
      const int64_t want = spec.aggregates[a].op == AggOp::kCount
                               ? acc.count
                               : acc.values[a];
      if (result.aggregate_values[a][g] != want) {
        return Fail(spec.id, "aggregate " + std::to_string(a) +
                                 " differs in group " + std::to_string(g));
      }
      if (is_avg) {
        const size_t at = avg_index * groups + g;
        const double avg = static_cast<double>(want) /
                           static_cast<double>(acc.count);
        if (at >= result.aggregate_avg.size() ||
            std::fabs(result.aggregate_avg[at] - avg) >
                1e-9 * std::max(1.0, std::fabs(avg))) {
          return Fail(spec.id, "AVG differs in group " + std::to_string(g));
        }
      }
    }
    if (is_avg) ++avg_index;
  }

  // Result ordering over the groups.
  if (spec.result_order.empty()) return "";
  const std::vector<uint32_t>& order = result.result_group_order;
  if (order.size() != groups) return Fail(spec.id, "wrong group order length");
  std::vector<uint8_t> placed(groups, 0);
  for (uint32_t g : order) {
    if (g >= groups || placed[g]) {
      return Fail(spec.id, "group order is not a permutation");
    }
    placed[g] = 1;
  }
  auto order_key = [&](uint32_t g) {
    std::vector<Code> key;
    for (const mcsort::ResultOrderSpec& ros : spec.result_order) {
      if (ros.key.rfind("agg:", 0) == 0) {
        // Order keys compare as unsigned codes; shift so that signed
        // aggregate values keep their order.
        const int64_t v =
            result.aggregate_values[std::stoul(ros.key.substr(4))][g];
        key.push_back(static_cast<Code>(v) ^ (Code{1} << 63));
      } else {
        key.push_back(table.column(ros.key).Get(oids[run_begin[g]]));
      }
    }
    return key;
  };
  std::vector<SortOrder> orders;
  for (const mcsort::ResultOrderSpec& ros : spec.result_order) {
    orders.push_back(ros.order);
  }
  for (size_t i = 1; i < order.size(); ++i) {
    if (CompareTuples(order_key(order[i - 1]), order_key(order[i]), orders) >
        0) {
      return Fail(spec.id, "result order violated at group " +
                               std::to_string(i));
    }
  }
  return "";
}

TableModel::TableModel(const Table& base, bool corrupt)
    : names_(base.column_names()), live_(base.row_count(), true) {
  for (const std::string& name : names_) {
    const EncodedColumn& column = base.column(name);
    const int64_t domain_base = base.domain_base(name);
    std::vector<int64_t> values(column.size());
    for (size_t r = 0; r < column.size(); ++r) {
      values[r] = domain_base + static_cast<int64_t>(column.Get(r));
    }
    columns_.push_back(std::move(values));
  }
  // The self-test's deliberately wrong expectation: one phantom row.
  if (corrupt) {
    for (auto& column : columns_) column.push_back(0);
    live_.push_back(true);
  }
}

int TableModel::ColumnIndex(const std::string& name) const {
  for (size_t c = 0; c < names_.size(); ++c) {
    if (names_[c] == name) return static_cast<int>(c);
  }
  return -1;
}

void TableModel::Apply(const mcsort::delta::DmlCommand& cmd) {
  using mcsort::delta::DmlCompareOp;
  using mcsort::delta::DmlOp;
  if (cmd.op == DmlOp::kInsert) {
    for (const auto& row : cmd.rows) {
      for (size_t i = 0; i < cmd.columns.size(); ++i) {
        columns_[ColumnIndex(cmd.columns[i])].push_back(row[i].i64);
      }
      live_.push_back(true);
    }
    return;
  }
  // DELETE (the benchmark sends no UPDATE).
  const std::vector<int64_t>& column =
      columns_[ColumnIndex(cmd.predicate.column)];
  const int64_t literal = cmd.predicate.value.i64;
  for (size_t r = 0; r < live_.size(); ++r) {
    const int64_t v = column[r];
    bool match = false;
    switch (cmd.predicate.op) {
      case DmlCompareOp::kEq: match = v == literal; break;
      case DmlCompareOp::kNe: match = v != literal; break;
      case DmlCompareOp::kLt: match = v < literal; break;
      case DmlCompareOp::kLe: match = v <= literal; break;
      case DmlCompareOp::kGt: match = v > literal; break;
      case DmlCompareOp::kGe: match = v >= literal; break;
    }
    if (match) live_[r] = false;
  }
}

std::string TableModel::CheckGroupedCounts(
    const QuerySpec& spec, const mcsort::net::RemoteResult& result) const {
  if (!result.ok()) return Fail(spec.id, "final read failed");
  std::vector<int> key_columns;
  for (const std::string& name : spec.group_by) {
    key_columns.push_back(ColumnIndex(name));
  }
  const int measure = ColumnIndex(spec.aggregates.at(1).column);
  std::map<std::vector<int64_t>, std::pair<int64_t, int64_t>> reference;
  for (size_t r = 0; r < live_.size(); ++r) {
    if (!live_[r]) continue;
    std::vector<int64_t> key;
    for (int c : key_columns) key.push_back(columns_[c][r]);
    auto& [count, sum] = reference[key];
    ++count;
    sum += columns_[measure][r];
  }
  const std::vector<uint32_t>& order = result.result_group_order;
  if (result.summary.num_groups != reference.size() ||
      order.size() != reference.size() ||
      result.aggregate_values.size() != 2) {
    return Fail(spec.id, "final read has " +
                             std::to_string(result.summary.num_groups) +
                             " groups, model has " +
                             std::to_string(reference.size()));
  }
  size_t i = 0;
  for (const auto& [key, counts] : reference) {
    const uint32_t g = order[i++];
    if (g >= result.aggregate_values[0].size() ||
        result.aggregate_values[0][g] != counts.first ||
        result.aggregate_values[1][g] != counts.second) {
      return Fail(spec.id, "final read differs from the model at group " +
                               std::to_string(i - 1));
    }
  }
  return "";
}

}  // namespace perfbench
