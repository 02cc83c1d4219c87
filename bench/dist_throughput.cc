// Distributed scatter-gather throughput: the same GROUP BY workload run
// single-node and through McsortCoordinator over 1 / 2 / 4 in-process
// shard servers (loopback TCP, full wire stack), reporting queries/sec,
// p50/p95/p99 latency, and the fan-out vs. coordinator-merge breakdown
// per shard count.
//
// What to look for: the per-shard sort shrinks with the shard count (each
// shard sorts n/K rows), while the coordinator adds a merge whose cost
// scales with the *result* size, not the input — so distribution pays off
// exactly when the reduction (rows -> groups) is large. The merge columns
// (emitted, full compares) show the offset-value codes doing their job:
// full key comparisons stay a small fraction of emitted elements.
//
// Environment knobs: MCSORT_N (rows, default 1<<20), MCSORT_REPS (queries
// per configuration, default 20), MCSORT_EXEC_THREADS (server executor
// workers, default 2).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/env.h"
#include "mcsort/common/timer.h"
#include "mcsort/dist/coordinator.h"
#include "mcsort/dist/partition.h"
#include "mcsort/net/server.h"
#include "mcsort/service/query_service.h"

namespace mcsort {
namespace {

Table BenchTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  Table table;
  EncodedColumn a(6, n), b(11, n), c(19, n), m(10, n);
  for (size_t r = 0; r < n; ++r) {
    a.Set(r, rng.NextBounded(20));
    b.Set(r, rng.NextBounded(500));
    c.Set(r, rng.NextBounded(100000));
    m.Set(r, rng.NextBounded(1000));
  }
  table.AddColumn("a", std::move(a));
  table.AddColumn("b", std::move(b));
  table.AddColumn("c", std::move(c));
  table.AddColumn("m", std::move(m));
  return table;
}

QuerySpec BenchSpec() {
  return QuerySpecBuilder("dist-bench")
      .GroupBy({"a", "b"})
      .Sum("m")
      .Count()
      .Aggregate(AggOp::kAvg, "m")
      .ResultOrder("agg:0", SortOrder::kDescending)
      .Build();
}

double PercentileOf(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0;
  std::sort(sorted->begin(), sorted->end());
  const size_t i = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(i, sorted->size() - 1)];
}

struct Row {
  std::string label;
  double qps = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  double fanout = 0, merge = 0;  // mean seconds per query
  uint64_t emitted = 0, full_compares = 0;
};

void PrintRow(const Row& row) {
  std::printf("%-12s %8.1f   %7.2f %7.2f %7.2f   %7.2f %7.2f   %9llu %9llu\n",
              row.label.c_str(), row.qps, row.p50 * 1e3, row.p95 * 1e3,
              row.p99 * 1e3, row.fanout * 1e3, row.merge * 1e3,
              static_cast<unsigned long long>(row.emitted),
              static_cast<unsigned long long>(row.full_compares));
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  const size_t n = EnvU64("MCSORT_N", uint64_t{1} << 20);
  const int reps = static_cast<int>(EnvU64("MCSORT_REPS", 20));
  const int exec_threads =
      static_cast<int>(EnvU64("MCSORT_EXEC_THREADS", 2));

  std::printf("Distributed throughput: GROUP BY a,b with 3 aggregates and "
              "ORDER BY sum DESC,\nN = %zu rows, %d reps per configuration, "
              "%d executor threads per server.\n\n",
              n, reps, exec_threads);
  std::printf("%-12s %8s   %7s %7s %7s   %7s %7s   %9s %9s\n", "config",
              "q/s", "p50ms", "p95ms", "p99ms", "fan ms", "mrg ms",
              "emitted", "full cmp");

  const Table table = BenchTable(n, 4242);
  const QuerySpec spec = BenchSpec();

  // Single-node baseline: same spec, column order pinned like the
  // coordinator pins it, straight through the service layer (no network).
  {
    ServiceOptions service_options;
    service_options.threads = exec_threads;
    QueryService service(service_options);
    auto session = service.OpenSession(table);
    QuerySpec pinned = spec;
    pinned.fixed_column_order = true;
    std::vector<double> latencies;
    Timer total;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const ExecResult result =
          session->Execute(pinned, ExecContext::Default());
      if (!result.ok()) {
        std::fprintf(stderr, "single-node query failed\n");
        return 1;
      }
      latencies.push_back(t.Seconds());
    }
    Row row;
    row.label = "single";
    row.qps = reps / total.Seconds();
    row.p50 = PercentileOf(&latencies, 50);
    row.p95 = PercentileOf(&latencies, 95);
    row.p99 = PercentileOf(&latencies, 99);
    PrintRow(row);
  }

  for (const int shards : {1, 2, 4}) {
    dist::PartitionOptions popts;
    popts.num_shards = shards;  // unkeyed row hash: every group is a seam
    dist::PartitionResult parts = dist::PartitionTable(table, popts);
    if (!parts.ok) {
      std::fprintf(stderr, "partition: %s\n", parts.error.c_str());
      return 1;
    }

    std::vector<std::unique_ptr<QueryService>> services;
    std::vector<std::unique_ptr<net::McsortServer>> servers;
    dist::McsortCoordinator coordinator;
    for (const Table& shard : parts.shards) {
      ServiceOptions service_options;
      service_options.threads = exec_threads;
      services.push_back(std::make_unique<QueryService>(service_options));
      services.back()->RegisterTable("part", shard);
      net::ServerOptions server_options;
      server_options.port = 0;
      server_options.exec_threads = exec_threads;
      servers.push_back(std::make_unique<net::McsortServer>(
          services.back().get(), server_options));
      std::string error;
      if (!servers.back()->Start(&error)) {
        std::fprintf(stderr, "server start: %s\n", error.c_str());
        return 1;
      }
      dist::ShardSpec shard_spec;
      shard_spec.endpoints.push_back({"127.0.0.1", servers.back()->port()});
      shard_spec.table = "part";
      coordinator.AddShard(std::move(shard_spec));
    }

    std::vector<double> latencies;
    Row row;
    Timer total;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      const dist::DistResult result = coordinator.Execute(spec);
      if (!result.ok()) {
        std::fprintf(stderr, "distributed query failed: %s\n",
                     result.status.ToString().c_str());
        return 1;
      }
      latencies.push_back(t.Seconds());
      row.fanout += result.fanout_seconds;
      row.merge += result.merge_seconds;
      row.emitted = result.merge_emitted;
      row.full_compares = result.merge_full_compares;
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%d shard%s", shards,
                  shards == 1 ? "" : "s");
    row.label = label;
    row.qps = reps / total.Seconds();
    row.p50 = PercentileOf(&latencies, 50);
    row.p95 = PercentileOf(&latencies, 95);
    row.p99 = PercentileOf(&latencies, 99);
    row.fanout /= reps;
    row.merge /= reps;
    PrintRow(row);
    for (auto& server : servers) server->Shutdown();
  }
  return 0;
}
