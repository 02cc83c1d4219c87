// Reproduces Figure 12 / Appendix C of the paper: sensitivity of ROGA to
// the time threshold rho. For representative queries the multi-column
// sorting time of the chosen plan, the search time, and the number of
// plans costed are reported for rho in {0.01%, 0.1%, 1%, 10%, N/S}.
//
// Paper findings: ROGA usually completes before any reasonable deadline;
// effectiveness is insensitive to rho except at the most stringent value;
// rho = 0.1% is a good default even for the W > 87 queries.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mcsort/common/env.h"
#include "mcsort/plan/roga.h"

int main() {
  using namespace mcsort;
  WorkloadOptions wopts;
  wopts.scale = bench::ScaleFromEnv();
  const CostParams& params = bench::BenchParams();
  const CostModel model(params);

  const Workload tpch = MakeTpch(wopts);
  const Workload tpcds = MakeTpcds(wopts);
  const Workload airline = MakeAirline(wopts);
  struct Target {
    const Workload* workload;
    const char* id;
  };
  // One small-W and two large-W (> 60 bits) instances, as in Fig. 12.
  const std::vector<Target> targets = {
      {&tpch, "Q16"}, {&tpch, "Q10"}, {&tpcds, "Q67"}, {&airline, "Q3"}};

  std::printf("Figure 12 / Appendix C reproduction: ROGA under varying "
              "rho.\n");
  for (const Target& t : targets) {
    const WorkloadQuery& q = t.workload->query(t.id);
    const Table& table = t.workload->table_for(q);
    ExecutorOptions base_options;
    base_options.params = params;
    QueryExecutor executor(table, base_options);
    const SortInstanceStats stats =
        executor.InstanceStats(q.spec, table.row_count());
    bench::Header(t.workload->name + " " + t.id + "  (W = " +
                  std::to_string(stats.total_width()) + " bits)");
    std::printf("%-8s %12s %12s %14s %-30s\n", "rho", "search(ms)",
                "plans", "est mcs(ms)", "chosen plan");

    // Default sweep, or a single externally chosen value: MCSORT_RHO is
    // the same knob the query service reads (ServiceOptions::FromEnv), so
    // a deployment can check its configured rho against this figure.
    std::vector<double> rhos = {0.0001, 0.001, 0.01, 0.1, 0.0};
    std::vector<std::string> labels = {"0.01%", "0.1%", "1%", "10%", "N/S"};
    const double env_rho = EnvDouble("MCSORT_RHO", -1.0);
    if (env_rho >= 0) {
      rhos = {env_rho};
      labels = {"env"};
    }
    for (size_t i = 0; i < rhos.size(); ++i) {
      SearchOptions options;
      options.rho = rhos[i];
      options.min_budget_seconds = 0;  // expose the raw rho behavior
      // Fixed attribute order for every row: isolates the rho effect (the
      // N/S row would otherwise enumerate m! permutations of the large-W
      // GROUP BY queries, which is exactly what rho exists to prevent).
      options.permute_columns = false;
      const SearchResult result = RogaSearch(model, stats, options);
      std::printf("%-8s %12.3f %12zu %14s %-30s%s\n", labels[i].c_str(),
                  result.search_seconds * 1e3, result.plans_costed,
                  bench::Ms(result.estimated_cycles / (params.ghz * 1e9))
                      .c_str(),
                  result.plan.ToString().c_str(),
                  result.timed_out ? "  [deadline]" : "");
    }
  }
  std::printf("\npaper: rho = 0.1%% gives ROGA enough time to find a very "
              "high quality plan\nwithout the optimizer becoming a "
              "bottleneck.\n");
  return 0;
}
