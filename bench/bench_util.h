// Shared helpers for the figure/table reproduction benchmarks.
//
// Environment knobs (all optional):
//   MCSORT_N     rows for the synthetic Sec. 3 instances (default 2^21;
//                the paper uses 2^24 — set MCSORT_N=16777216 to match).
//   MCSORT_SF    workload scale factor (default 0.1; paper uses 1/5/10).
//   MCSORT_REPS  repetitions per measurement (default 3, min-of).
//   MCSORT_CALIBRATE  "0" skips calibration and uses default constants.
//   MCSORT_THREADS  max worker count for the parallel-executor benches
//                (default: the detected core count). The dev container
//                exposes one core; set this on multi-core hosts to sweep
//                the morsel-driven executor past the hardware default.
#ifndef MCSORT_BENCH_BENCH_UTIL_H_
#define MCSORT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "mcsort/common/bits.h"
#include "mcsort/common/env.h"
#include "mcsort/common/random.h"
#include "mcsort/common/timer.h"
#include "mcsort/cost/calibration.h"
#include "mcsort/engine/multi_column_sorter.h"
#include "mcsort/engine/query.h"
#include "mcsort/massage/plan.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/statistics.h"
#include "mcsort/workloads/workload.h"

namespace mcsort {
namespace bench {

using mcsort::EnvU64;  // shared with the service layer (common/env.h)

inline uint64_t EnvRows() { return EnvU64("MCSORT_N", uint64_t{1} << 21); }
inline int EnvReps() { return static_cast<int>(EnvU64("MCSORT_REPS", 3)); }

// Workload scale factor: MCSORT_SF if set and positive, else 0.1.
inline double ScaleFromEnv() {
  const double sf = EnvDouble("MCSORT_SF", 0.1);
  return sf > 0 ? sf : 0.1;
}

// Worker-count ceiling for the thread-scaling benches: MCSORT_THREADS if
// set, else the detected core count. The pool itself is real either way —
// on a single-core container the override still exercises every parallel
// code path, just without wall-clock speedup.
inline int EnvThreads(int fallback) {
  return static_cast<int>(
      EnvU64("MCSORT_THREADS", static_cast<uint64_t>(fallback)));
}

// Thread counts to sweep: 1, then doubling up to (and including) `limit`.
inline std::vector<int> ThreadSweep(int limit) {
  std::vector<int> counts = {1};
  for (int t = 2; t < limit; t *= 2) counts.push_back(t);
  if (limit > 1) counts.push_back(limit);
  return counts;
}

// Calibrated (or default) cost-model parameters, computed once.
inline const CostParams& BenchParams() {
  if (EnvStr("MCSORT_CALIBRATE", "") == "0") {
    static const CostParams kDefault = CostParams::Default();
    return kDefault;
  }
  return CalibratedParams();
}

// A synthetic column per the Sec. 3 setup: `distinct` values uniformly
// distributed on [0, 2^width) (2^13 distinct by default, fewer if the
// domain is smaller).
inline EncodedColumn SyntheticColumn(int width, uint64_t n, uint64_t seed,
                                     uint64_t distinct = uint64_t{1} << 13) {
  Rng rng(seed);
  const uint64_t domain = LowBitsMask(width) + 1;
  const uint64_t d = std::min(distinct, domain);
  // Fixed random dictionary spread over the domain.
  std::vector<Code> dict(d);
  for (auto& v : dict) v = rng.NextBounded(domain);
  EncodedColumn col(width, n);
  for (uint64_t i = 0; i < n; ++i) col.Set(i, dict[rng.NextBounded(d)]);
  return col;
}

// Executes a plan on an instance `reps` times and returns the best result
// (wall time) together with the profile of that run.
inline MultiColumnSortResult MeasurePlan(
    const std::vector<MassageInput>& inputs, const MassagePlan& plan,
    int reps, MultiColumnSorter* sorter) {
  MultiColumnSortResult best;
  double best_seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    MultiColumnSortResult result = sorter->Sort(inputs, plan);
    const double seconds = result.total_seconds();
    if (seconds < best_seconds) {
      best_seconds = seconds;
      best = std::move(result);
    }
  }
  return best;
}

// Pretty-prints a horizontal rule and a section header.
inline void Header(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  for (size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n");
}

// Formats seconds as milliseconds with sensible precision.
inline std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

// Builds the sort-instance statistics for explicit columns.
inline SortInstanceStats StatsFor(const std::vector<const EncodedColumn*>& cols,
                                  std::vector<ColumnStats>* storage) {
  storage->clear();
  storage->reserve(cols.size());
  for (const EncodedColumn* c : cols) {
    storage->push_back(ColumnStats::Build(*c));
  }
  SortInstanceStats stats;
  stats.n = cols.empty() ? 0 : cols[0]->size();
  for (const ColumnStats& s : *storage) stats.columns.push_back(&s);
  return stats;
}

// Runs one workload query (min-of-reps) under the given options. Benches
// measure the unconstrained path, so each rep runs under the (never
// stoppable, zero-overhead) default ExecContext.
inline QueryResult MeasureQuery(const Table& table, const QuerySpec& spec,
                                const ExecutorOptions& options, int reps) {
  QueryExecutor executor(table, options);
  QueryResult best;
  double best_seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    QueryResult result =
        executor.Execute(spec, ExecContext::Default()).result;
    if (result.total_seconds() < best_seconds) {
      best_seconds = result.total_seconds();
      best = std::move(result);
    }
  }
  return best;
}

}  // namespace bench
}  // namespace mcsort

#endif  // MCSORT_BENCH_BENCH_UTIL_H_
