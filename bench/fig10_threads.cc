// Reproduces Figure 10 of the paper: throughput (million tuples/second) of
// selected queries with code massaging enabled, as the number of threads
// grows. The paper observes linear scaling up to 10 cores (Xeon) / 4 cores
// (i7); this container exposes a limited core count, so the curve
// flattens at the hardware limit (documented in EXPERIMENTS.md) — the
// harness demonstrates correct parallel execution either way.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/cpu_info.h"

int main() {
  using namespace mcsort;
  WorkloadOptions wopts;
  wopts.scale = bench::ScaleFromEnv();
  const CostParams& params = bench::BenchParams();
  // Default sweep reaches 4 threads as the paper's i7 curve does; on a
  // bigger host set MCSORT_THREADS to sweep the morsel-driven executor up
  // to the real core count.
  const int max_threads =
      bench::EnvThreads(std::max(4, CpuInfo::Get().num_cores));
  const std::vector<int> thread_counts = bench::ThreadSweep(max_threads);
  std::printf("Figure 10 reproduction: throughput vs threads (machine has "
              "%d core(s), sweeping to %d).\n",
              CpuInfo::Get().num_cores, max_threads);

  const Workload tpch = MakeTpch(wopts);
  const Workload tpcds = MakeTpcds(wopts);
  struct Target {
    const Workload* workload;
    const char* id;
  };
  const std::vector<Target> targets = {
      {&tpch, "Q1"}, {&tpch, "Q18"}, {&tpcds, "Q67"}};

  for (const Target& t : targets) {
    const WorkloadQuery& q = t.workload->query(t.id);
    const Table& table = t.workload->table_for(q);
    bench::Header(t.workload->name + " " + t.id);
    std::printf("%-8s %12s %14s %12s %12s\n", "threads", "time(ms)",
                "Mtuples/s", "sort-morsels", "coop-sorts");
    for (int threads : thread_counts) {
      std::unique_ptr<ThreadPool> pool;
      ExecutorOptions options;
      options.use_massage = true;
      options.params = params;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(threads);
        options.pool = pool.get();
      }
      const QueryResult result =
          bench::MeasureQuery(table, q.spec, options, bench::EnvReps());
      const double seconds = result.total_seconds();
      // Per-stage parallelism of the main sort: dynamic morsels claimed
      // for segment sorts and segments handled by the cooperative
      // whole-segment parallel sorter.
      size_t sort_morsels = 0;
      size_t coop_sorts = 0;
      for (const RoundProfile& round : result.sort_profile.rounds) {
        sort_morsels += round.sort_morsels;
        coop_sorts += round.cooperative_sorts;
      }
      std::printf("%-8d %12s %14.2f %12zu %12zu\n", threads,
                  bench::Ms(seconds).c_str(),
                  seconds > 0 ? table.row_count() / seconds / 1e6 : 0,
                  sort_morsels, coop_sorts);
    }
  }
  std::printf("\npaper: linear core/thread scalability across workloads and\n"
              "CPU models (10-core Xeon, 4-core i7).\n");
  return 0;
}
