// In-process replay of a traced request stream against a QueryService
// configured like tools/mcsort_server (CostParams::Default(), the server's
// rho and pool size). It measures the layers the wire does not expose, by
// timing calls into the service's public functions from outside:
// FindTableShared (merge-at-scan when a delta is pending),
// QuerySession::Execute (with the QueryResult phase timers and the sort's
// RoundProfiles attached as children), ApplyDml, CompactTable, SaveTable.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

// One request of the traced stream, in send order.
struct ReplayOp {
  bool is_write = false;
  uint32_t read = 0;    // index into Workload::reads
  uint64_t write = 0;   // MakeWrite index
  double at_s = 0;      // send time, seconds since the window opened
};

struct ReplayConfig {
  std::string catalog_dir;  // a private copy of the workload's snapshots
  int threads = 2;
  double rho = 0.001;
  uint64_t seed = 0;        // the writer's seed (MakeWrite)
  double budget_s = 10;     // stop replaying after this much wall time
};

struct ReplayResult {
  uint64_t ops = 0;
  Samples merge_at_scan_ms;  // FindTableShared with a pending delta
  Samples apply_ms;          // ApplyDml
  Samples compact_ms;        // CompactTable (merge + save + publish)
  Samples save_ms;           // SaveTable of the workload's tables
  Samples round_lookup_ms, round_sort_ms, round_group_scan_ms;
  Samples rounds_per_query;
  // MCS seconds of the served plans and of the column-at-a-time baseline
  // on the same queries (cost.massage_speedup = baseline / served).
  double served_mcs_s = 0;
  double baseline_mcs_s = 0;
  uint64_t compared_queries = 0;
  uint64_t failed = 0;
};

ReplayResult Replay(const Workload& workload, const std::vector<ReplayOp>& ops,
                    const ReplayConfig& config, SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
