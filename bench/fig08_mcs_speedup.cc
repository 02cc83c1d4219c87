// Reproduces Figure 8 of the paper: the speedup of the multi-column
// sorting phase when code massaging is enabled (best ROGA plan) versus
// disabled (column-at-a-time), for the eligible TPC-H, TPC-H skew,
// TPC-DS, and Airline ("real") queries.
//
// The paper reports speedups from 1.8X (real Q4) up to 5.5X (TPC-H Q2).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace mcsort {
namespace {

void RunWorkload(const Workload& workload, const CostParams& params) {
  bench::Header(workload.name);
  ExecutorOptions off;
  off.use_massage = false;
  ExecutorOptions on;
  on.use_massage = true;
  on.params = params;

  std::printf("%-5s %12s %12s %9s   %-28s %s\n", "query", "mcs off(ms)",
              "mcs on(ms)", "speedup", "chosen plan", "search(ms)");
  for (const WorkloadQuery& q : workload.queries) {
    const Table& table = workload.table_for(q);
    const QueryResult r_off =
        bench::MeasureQuery(table, q.spec, off, bench::EnvReps());
    const QueryResult r_on =
        bench::MeasureQuery(table, q.spec, on, bench::EnvReps());
    const double speedup =
        r_on.mcs_seconds > 0 ? r_off.mcs_seconds / r_on.mcs_seconds : 0;
    std::printf("%-5s %12s %12s %8.2fX   %-28s %s\n", q.id.c_str(),
                bench::Ms(r_off.mcs_seconds).c_str(),
                bench::Ms(r_on.mcs_seconds).c_str(), speedup,
                r_on.plan.ToString().c_str(),
                bench::Ms(r_on.plan_seconds).c_str());
  }
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  WorkloadOptions wopts;
  wopts.scale = bench::ScaleFromEnv();
  std::printf("Figure 8 reproduction: multi-column sorting speedup with code\n"
              "massaging (SF %.3g). Paper: 1.8X (real Q4) to 5.5X (TPC-H "
              "Q2).\n",
              wopts.scale);
  const CostParams& params = bench::BenchParams();

  RunWorkload(MakeTpch(wopts), params);
  WorkloadOptions skew = wopts;
  skew.skew = true;
  RunWorkload(MakeTpch(skew), params);
  RunWorkload(MakeTpcds(wopts), params);
  RunWorkload(MakeAirline(wopts), params);
  return 0;
}
