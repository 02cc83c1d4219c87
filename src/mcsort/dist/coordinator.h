// McsortCoordinator — scatter-gather execution of one QuerySpec over N
// sharded mcsort servers, merged back into a single globally sorted
// answer that is bit-identical to running the query on the unsharded
// table.
//
// Fan-out: the coordinator pins the shard-side column order
// (QuerySpec::fixed_column_order) so per-shard ROGA cannot permute GROUP
// BY attributes differently across shards, sets merge_fan_in so shard
// cost models price the coordinator merge, strips result_order (re-applied
// locally over the merged groups), and asks for the composite merge-key
// sections (want_merge_keys). Each shard call runs on its own thread with
// a typed retry loop: transport failures, call timeouts, and kBusy /
// kShuttingDown answers fail over to the next replica endpoint with
// exponential backoff; semantic rejections (kBadQuery, ...) abort the
// fan-out.
//
// Gather: shard streams (already sorted — fixed order + identical spec)
// are merged by the OVC loser tree of dist/merge.h. Group-boundary
// stitching rides on the emitted offset-value codes: code == 0 means the
// element's key equals the previous output element's key, i.e. a group
// split across shards — its aggregates are combined (sum/count add,
// min/min, max/max, avg recomputed from summed sums and sizes) instead of
// emitting a new group.
#ifndef MCSORT_DIST_COORDINATOR_H_
#define MCSORT_DIST_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mcsort/common/status.h"
#include "mcsort/dist/merge.h"
#include "mcsort/engine/query.h"
#include "mcsort/net/client.h"
#include "mcsort/service/metrics.h"

namespace mcsort {
namespace dist {

struct ShardEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

// One logical shard: a primary endpoint plus zero or more replicas
// serving the same shard data (tried in order on retryable failures).
struct ShardSpec {
  std::vector<ShardEndpoint> endpoints;
  std::string table;  // table name on the shard servers (empty = default)
};

struct CoordinatorOptions {
  double connect_timeout_seconds = 5;
  double io_timeout_seconds = 30;
  // Per-attempt wall bound (QueryCallOptions::call_timeout_seconds);
  // 0 = bounded only by the per-call deadline / io timeout.
  double attempt_timeout_seconds = 0;
  // Total attempts per shard across its replica list before the shard is
  // declared failed.
  int max_attempts_per_shard = 3;
  // Backoff before retry k is base * 2^k (cancellation-interruptible).
  double retry_backoff_seconds = 0.05;
  std::string client_name = "mcsort-coord";
  // Optional dist.* instrumentation sink (borrowed; may be null).
  MetricsRegistry* metrics = nullptr;
};

struct DistCallOptions {
  // Wall-clock budget for the whole distributed call (fan-out + merge);
  // 0 = none. The remaining budget is shipped to shards as their
  // server-side deadline, so a slow shard times out *everywhere*.
  double deadline_seconds = 0;
};

// What happened on one shard during the fan-out.
struct ShardOutcome {
  int shard = -1;
  int endpoint_used = -1;  // replica index that answered; -1 = none did
  int attempts = 0;
  Status status;  // the last attempt's outcome (McsortClient::TryQuery's)
  double seconds = 0;   // wall time of this shard's call (incl. retries)
  uint64_t elements = 0;  // rows / groups the shard contributed
};

// Outcome of a whole fan-out. A non-ok `status` is one of: kCancelled,
// kDeadlineExceeded, kInvalidArgument / kNotFound (a shard rejected the
// spec), kUnavailable (a shard produced no result after exhausting its
// replicas — there is no partial result, since the merged answer would be
// silently wrong), kUnimplemented (a spec shape the distributed tier does
// not cover: window / PARTITION BY), kInternal (shard streams disagreed
// structurally), or kFailedPrecondition (no shards registered).
struct DistResult {
  Status status;
  std::vector<ShardOutcome> shards;

  // Merged answer. GROUP BY specs fill num_groups / aggregate_values /
  // aggregate_avg / group_sizes / result_group_order (per-row oids are
  // not defined across shards for grouped results); ORDER BY specs fill
  // result_oids (global pre-shard oids when every shard carries the
  // partitioner's __goid column).
  size_t num_groups = 0;
  std::vector<std::vector<int64_t>> aggregate_values;
  std::vector<double> aggregate_avg;
  std::vector<uint32_t> group_sizes;
  std::vector<uint32_t> result_oids;
  std::vector<uint32_t> result_group_order;

  // Breakdown: slowest shard call vs. coordinator-side merge+stitch, and
  // the OVC instrumentation of the merge (full_compares << emitted on
  // duplicate-heavy seams is the point of the scheme).
  double fanout_seconds = 0;
  double merge_seconds = 0;
  uint64_t merge_emitted = 0;
  uint64_t merge_full_compares = 0;

  bool ok() const { return status.ok(); }
};

class McsortCoordinator {
 public:
  explicit McsortCoordinator(CoordinatorOptions options = {});
  ~McsortCoordinator();

  McsortCoordinator(const McsortCoordinator&) = delete;
  McsortCoordinator& operator=(const McsortCoordinator&) = delete;

  void AddShard(ShardSpec spec);
  size_t num_shards() const { return shards_.size(); }

  // Runs `spec` over all registered shards and merges. Serialized: one
  // Execute at a time per coordinator (Cancel may be called from any
  // thread while one is in flight).
  DistResult Execute(const QuerySpec& spec, const DistCallOptions& call = {});

  // Cancels the in-flight Execute from any thread: pending shard calls
  // get wire CANCELs (the server unwinds at its next morsel boundary),
  // queued retries/backoffs are abandoned immediately.
  void Cancel();

 private:
  struct ShardState;
  struct ShardCall;

  void RunShard(ShardState& state, int shard_index, const QuerySpec& spec,
                bool has_deadline,
                std::chrono::steady_clock::time_point deadline,
                ShardCall* call);
  // Interruptible sleep; false when cancelled.
  bool Backoff(double seconds);
  void Count(const std::string& name);
  // Widths of `names` on the shards, fetched from any live connection
  // (needed to slice group-by codes back out of merged composite keys).
  bool FetchWidths(const std::vector<std::string>& names,
                   std::vector<int>* widths, std::string* error);

  CoordinatorOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<bool> cancelled_{false};
  std::mutex backoff_mu_;
  std::condition_variable backoff_cv_;
};

}  // namespace dist
}  // namespace mcsort

#endif  // MCSORT_DIST_COORDINATOR_H_
