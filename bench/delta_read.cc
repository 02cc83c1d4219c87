// Merge-at-scan cost of a read after a write: the CPU time of
// TableVersion::Snapshot() plus the stats and ByteSlices a dashboard read
// uses, on an event table of 2^20 and 2^21 rows (perfbench mixed_rw's
// shape: region 20, product 500 skewed, customer 100000, qty 1000, day
// 365).
//
// After an 8-row INSERT the read extends the previous merged image,
// writing only the new rows' codes, stats and ByteSlice bytes, so its
// cost should not grow with the table. After a DELETE it pays a full
// rebuild, which does. Both are timed with the thread CPU clock; the
// writes themselves are not timed.
//
// Environment: MCSORT_REPS (reads per row count, default 200).
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/random.h"
#include "mcsort/delta/table_version.h"
#include "mcsort/storage/table.h"
#include "mcsort/workloads/generators.h"

namespace mcsort {
namespace {

struct EventColumn {
  const char* name;
  uint64_t domain;
};
constexpr EventColumn kColumns[] = {{"region", 20},
                                    {"product", 500},
                                    {"customer", 100000},
                                    {"qty", 1000},
                                    {"day", 365}};
// What the mixed_rw reads touch: GROUP BY / ORDER BY attributes need
// stats, the filter columns need ByteSlices.
constexpr const char* kStatsColumns[] = {"region", "product", "day",
                                         "customer"};
constexpr const char* kSliceColumns[] = {"day", "region"};

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::shared_ptr<Table> EventTable(size_t rows, Rng& rng) {
  auto table = std::make_shared<Table>(rows);
  for (const EventColumn& column : kColumns) {
    table->AddColumn(column.name,
                     std::string(column.name) == "product"
                         ? SkewedColumn(rows, column.domain, column.domain,
                                        1.0, rng)
                         : UniformColumn(rows, column.domain, rng));
  }
  return table;
}

delta::DmlCommand Insert(Rng& rng) {
  delta::DmlCommand cmd;
  cmd.op = delta::DmlOp::kInsert;
  for (const EventColumn& column : kColumns) cmd.columns.push_back(column.name);
  for (int r = 0; r < 8; ++r) {
    std::vector<delta::DmlValue> row;
    for (const EventColumn& column : kColumns) {
      row.push_back(delta::DmlValue::Int(
          static_cast<int64_t>(rng.NextBounded(column.domain))));
    }
    cmd.rows.push_back(std::move(row));
  }
  return cmd;
}

delta::DmlCommand DeleteCustomer(Rng& rng) {
  delta::DmlCommand cmd;
  cmd.op = delta::DmlOp::kDelete;
  cmd.has_predicate = true;
  cmd.predicate = {"customer", delta::DmlCompareOp::kEq,
                   delta::DmlValue::Int(
                       static_cast<int64_t>(rng.NextBounded(100000)))};
  return cmd;
}

// One read: the image plus the layouts the dashboard queries use.
double TimedRead(delta::TableVersion& version,
                 delta::TableVersion::MergeReport* report) {
  const double t0 = ThreadCpuSeconds();
  const std::shared_ptr<const Table> image = version.Snapshot(report);
  uint64_t sink = 0;
  for (const char* name : kStatsColumns) {
    sink += image->stats(name).DistinctSketch();
  }
  for (const char* name : kSliceColumns) {
    sink += static_cast<uint64_t>(image->byteslice(name).num_slices());
  }
  const double t1 = ThreadCpuSeconds();
  if (sink == 42) std::printf(" ");
  return t1 - t0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
}

void Run(int log2_rows, int reps) {
  Rng rng(static_cast<uint64_t>(log2_rows));
  delta::TableVersion version(EventTable(size_t{1} << log2_rows, rng));
  using Kind = delta::TableVersion::MergeReport::Kind;
  std::vector<double> extend_ms, full_ms;
  int capacity_fallbacks = 0;
  for (int i = 0; i < reps; ++i) {
    // One DELETE every ten writes, as in mixed_rw.
    version.Apply(i % 10 == 9 ? DeleteCustomer(rng) : Insert(rng));
    delta::TableVersion::MergeReport report;
    const double seconds = TimedRead(version, &report);
    if (report.kind == Kind::kExtended) extend_ms.push_back(seconds * 1e3);
    if (report.kind == Kind::kFullBuild) {
      full_ms.push_back(seconds * 1e3);
      if (report.fallback == delta::MergeFallback::kCapacity) {
        ++capacity_fallbacks;
      }
    }
  }
  std::printf("%-10zu %-11s %6zu %12.4f %12.4f\n", size_t{1} << log2_rows,
              "extend", extend_ms.size(), Percentile(extend_ms, 0.5),
              Percentile(extend_ms, 0.9));
  std::printf("%-10zu %-11s %6zu %12.4f %12.4f  (%d for capacity)\n",
              size_t{1} << log2_rows, "full_build", full_ms.size(),
              Percentile(full_ms, 0.5), Percentile(full_ms, 0.9),
              capacity_fallbacks);
}

}  // namespace
}  // namespace mcsort

int main() {
  const int reps = static_cast<int>(mcsort::EnvU64("MCSORT_REPS", 200));
  std::printf("CPU ms of a read after a write (Snapshot + stats + ByteSlice)\n");
  std::printf("%-10s %-11s %6s %12s %12s\n", "rows", "read", "reads",
              "median_ms", "p90_ms");
  for (int log2_rows : {20, 21}) mcsort::Run(log2_rows, reps);
  return 0;
}
