// Multi-column sort executor — runs a (possibly massaged) plan end-to-end:
//
//   massage inputs into round keys          (Code-Massage operator, Fig. 6)
//   for each round j:
//     j > 1: reorder round key by oids      (Lookup, Fig. 2a step 2a)
//     sort every non-singleton group        (SIMD-Sort, per-segment)
//     split groups at key changes           (Scan,   Fig. 2a step 2b)
//
// With the column-at-a-time plan P0 and all-ascending inputs this is
// exactly the state-of-the-art baseline of Fig. 2a; with a massaged plan it
// is Fig. 2b. The result is the permuted oid list plus the final grouping
// (identical for all valid plans by Lemma 1 — tested property).
#ifndef MCSORT_ENGINE_MULTI_COLUMN_SORTER_H_
#define MCSORT_ENGINE_MULTI_COLUMN_SORTER_H_

#include <optional>
#include <vector>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/thread_pool.h"
#include "mcsort/massage/massage.h"
#include "mcsort/massage/plan.h"
#include "mcsort/scan/group_scan.h"
#include "mcsort/sort/simd_sort.h"
#include "mcsort/storage/column.h"
#include "mcsort/storage/types.h"

namespace mcsort {

struct RoundProfile {
  double lookup_seconds = 0;  // reorder of the round key by current oids
  double sort_seconds = 0;    // per-group SIMD sorts
  double scan_seconds = 0;    // group-boundary extraction
  size_t num_groups = 0;      // N_group after this round
  size_t num_sorts = 0;       // N_sort: non-singleton groups sorted

  // The kernel that actually executed this round (the plan annotation,
  // after MCSORT_KERNELS forcing and the counting feasibility guard).
  SortKernel kernel = SortKernel::kSimdMerge;

  // Morsel-driven parallelism instrumentation (all zero for serial runs).
  size_t cooperative_sorts = 0;  // huge segments sorted by the kernel's
                                 // cooperative parallel sorter (all
                                 // workers)
  size_t sort_morsels = 0;       // dynamic morsels claimed for mid/tiny
                                 // segment sorts
  int sort_workers = 0;          // max workers on any segment-sort dispatch
  size_t lookup_morsels = 0;     // parallel gather chunks
  size_t scan_chunks = 0;        // parallel group-scan chunks
};

struct MultiColumnSortResult {
  // Outcome: kOk for a completed sort. On cancellation / deadline expiry /
  // injected fault the sort unwinds at the next boundary and oids/groups
  // are partial garbage — only `status` and the timings are meaningful.
  Status status;
  // Permutation: row r of the sorted order is input row oids[r].
  std::vector<Oid> oids;
  // Final grouping: rows tied on *all* sort attributes.
  Segments groups;
  // Instrumentation (wall time).
  double massage_seconds = 0;
  std::vector<RoundProfile> rounds;

  double total_seconds() const {
    double total = massage_seconds;
    for (const RoundProfile& r : rounds) {
      total += r.lookup_seconds + r.sort_seconds + r.scan_seconds;
    }
    return total;
  }
};

// SortKernel itself lives in massage/plan.h (it is a plan dimension): each
// round runs the kernel its plan annotation names, unless MCSORT_KERNELS
// names exactly one kernel, which then runs every round.
class MultiColumnSorter {
 public:
  // `pool` (optional) parallelizes massaging, lookups, and per-group sorts.
  explicit MultiColumnSorter(ThreadPool* pool = nullptr);

  // Sorts under `plan`; plan.total_width() must equal the summed input
  // widths. Inputs are given most-significant first (ORDER BY order).
  //
  // `ctx` carries the execution's cancellation token / deadline / fault
  // injector: the fault injector is polled at every round boundary, stop
  // sources at every phase and morsel boundary, and on a stop the sort
  // unwinds with the typed status in the result (partial output, to be
  // discarded). The default context adds no overhead.
  MultiColumnSortResult Sort(
      const std::vector<MassageInput>& inputs, const MassagePlan& plan,
      const ExecContext& ctx = ExecContext::Default());

  // The baseline: column-at-a-time plan P0.
  MultiColumnSortResult SortColumnAtATime(
      const std::vector<MassageInput>& inputs);

 private:
  // Sorts every non-singleton segment of `keys` in place, permuting the
  // matching `oids` range, with round kernel `kernel` (subject to the
  // MCSORT_KERNELS forcing described above; a counting kernel on a round
  // too wide for it runs merge instead; the resolved kernel is recorded in
  // `profile`). With a multi-worker pool, segments are bucketed by size:
  // huge ones run the kernel's cooperative parallel sorter, mid-size ones
  // are claimed dynamically as morsels of segments, and tiny
  // (insertion-sort-sized) ones ride in large morsels to amortize
  // dispatch. A stoppable `ctx` stops between segments / morsels / merge
  // chunks; the caller re-checks ctx and discards the round on a stop.
  void SortSegments(int bank, SortKernel kernel, EncodedColumn* keys,
                    Oid* oids, const Segments& segments,
                    RoundProfile* profile,
                    const ExecContext* ctx = nullptr);

  ThreadPool* pool_;
  // Set when MCSORT_KERNELS names exactly one kernel: forced everywhere.
  std::optional<SortKernel> env_kernel_;
  std::vector<SortScratch> scratch_;  // one per worker
};

}  // namespace mcsort

#endif  // MCSORT_ENGINE_MULTI_COLUMN_SORTER_H_
