// Reproduces Figure 9 of the paper: end-to-end query execution time with
// multi-column sorting executed with vs. without code massaging, across
// data scales. The paper uses TPC-H/TPC-DS scale factors 1, 5, 10 (1G/5G/
// 10G); this harness sweeps {SF, 2*SF, 4*SF} around the MCSORT_SF base so
// the relative shape (consistent query speedups across scales) is
// reproduced at container-friendly sizes.
//
// Paper result: up to 4.7X (TPC-H Q18), 4.7X (skew Q18), 4X (TPC-DS Q67),
// 3.2X (real Q3); Q13 is the exception (multi-column sorting share tiny).
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace mcsort {
namespace {

void RunScale(const Workload& workload,
              const std::vector<std::string>& query_ids, double scale,
              const CostParams& params) {
  ExecutorOptions off;
  off.use_massage = false;
  ExecutorOptions on;
  on.use_massage = true;
  on.params = params;
  std::printf("  [%s, SF %.3g]\n", workload.name.c_str(), scale);
  std::printf("  %-5s %12s %12s %9s %10s\n", "query", "off(ms)", "on(ms)",
              "speedup", "mcs-share");
  for (const std::string& id : query_ids) {
    const WorkloadQuery& q = workload.query(id);
    const Table& table = workload.table_for(q);
    const QueryResult r_off =
        bench::MeasureQuery(table, q.spec, off, bench::EnvReps());
    const QueryResult r_on =
        bench::MeasureQuery(table, q.spec, on, bench::EnvReps());
    const double t_off = r_off.total_seconds();
    const double t_on = r_on.total_seconds();
    std::printf("  %-5s %12s %12s %8.2fX %9.1f%%\n", id.c_str(),
                bench::Ms(t_off).c_str(), bench::Ms(t_on).c_str(),
                t_on > 0 ? t_off / t_on : 0,
                t_off > 0 ? 100 * r_off.mcs_seconds / t_off : 0);
  }
}

}  // namespace
}  // namespace mcsort

int main() {
  using namespace mcsort;
  const double base = bench::ScaleFromEnv();
  const CostParams& params = bench::BenchParams();
  std::printf("Figure 9 reproduction: query execution time, massage on/off,\n"
              "three scales (paper: SF 1/5/10; here %.3g/%.3g/%.3g).\n",
              base, 2 * base, 4 * base);

  for (double scale : {base, 2 * base, 4 * base}) {
    WorkloadOptions wopts;
    wopts.scale = scale;

    bench::Header("TPC-H (dbgen uniform): Q1, Q3, Q9, Q13, Q18");
    RunScale(MakeTpch(wopts), {"Q1", "Q3", "Q9", "Q13", "Q18"}, scale, params);

    WorkloadOptions skew = wopts;
    skew.skew = true;
    bench::Header("TPC-H skew (zipf 1): Q2, Q7, Q10, Q16, Q18");
    RunScale(MakeTpch(skew), {"Q2", "Q7", "Q10", "Q16", "Q18"}, scale, params);

    bench::Header("TPC-DS: all 4 eligible queries");
    RunScale(MakeTpcds(wopts), {"Q36", "Q67", "Q70", "Q86"}, scale, params);

    if (scale == base) {  // the real dataset has one fixed size in the paper
      bench::Header("Airline (real): all 5 queries");
      RunScale(MakeAirline(wopts), {"Q1", "Q2", "Q3", "Q4", "Q5"}, scale,
               params);
    }
  }
  return 0;
}
