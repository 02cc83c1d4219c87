// Reproduces Figure 1 of the paper: the time breakdown of the TPC-H
// queries with multiple attributes in their GROUP BY and/or ORDER BY
// clauses, executed WITHOUT code massaging (column-at-a-time), with
// ByteSlice fast scans and WideTable denormalization.
//
// The paper reports multi-column sorting taking 60%-92% of execution time
// for all queries except Q13 (whose multi-column ORDER BY runs over the
// small aggregated result).
#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace mcsort;
  WorkloadOptions wopts;
  wopts.scale = bench::ScaleFromEnv();
  std::printf("Figure 1 reproduction: TPC-H (SF %.3g), column-at-a-time\n"
              "(no code massaging), ByteSlice scans + WideTables.\n\n",
              wopts.scale);
  const Workload workload = MakeTpch(wopts);

  ExecutorOptions options;
  options.use_massage = false;

  std::printf("%-5s %10s %10s %10s %8s   %s\n", "query", "total(ms)",
              "mcs(ms)", "rest(ms)", "mcs%", "bar");
  for (const WorkloadQuery& q : workload.queries) {
    const QueryResult result = bench::MeasureQuery(
        workload.table_for(q), q.spec, options, bench::EnvReps());
    const double total = result.total_seconds();
    const double share = total > 0 ? result.mcs_seconds / total : 0;
    std::string bar(static_cast<size_t>(share * 40), '#');
    std::printf("%-5s %10s %10s %10s %7.1f%%   %s\n", q.id.c_str(),
                bench::Ms(total).c_str(), bench::Ms(result.mcs_seconds).c_str(),
                bench::Ms(result.rest_seconds() + result.plan_seconds).c_str(),
                share * 100, bar.c_str());
  }
  std::printf("\npaper: multi-column sorting takes 60%% (Q9) to 92%% (Q10) of\n"
              "execution time, except Q13 (dominated by single-column work).\n");
  return 0;
}
