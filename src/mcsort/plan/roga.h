// ROGA — the paper's round-based greedy plan search (Algorithm 1).
//
// Round-based: candidate plans are explored by round count k = 1, 2, ...
// up to the Lemma 2 bound floor(2(W-1)/b_min) + 1. For each k the valid
// bank-size combinations are enumerated (with Property-1 pruning); within
// a combination, two-round (and one-round) subspaces are costed
// exhaustively while k >= 3 subspaces are constructed greedily: bits a_i
// are assigned to round i to minimize the estimated sorting cost of round
// i + 1, and the remainder goes to the last round.
//
// A stopwatch bounds the whole search: once the elapsed time exceeds
// rho * (estimated cost of the best plan so far) the search returns — the
// optimizer must never become the bottleneck (Sec. 5, Appendix C). A
// deterministic cap on the plans costed bounds it too, so rho = 0 (no
// stopwatch) is still finite work.
//
// For GROUP BY / PARTITION BY instances the column order is free, so the
// search additionally permutes the input columns (the plan space is m!
// larger); the chosen permutation is returned.
#ifndef MCSORT_PLAN_ROGA_H_
#define MCSORT_PLAN_ROGA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mcsort/cost/cost_model.h"
#include "mcsort/massage/plan.h"

namespace mcsort {

class ExecContext;  // common/exec_context.h

// The search stops once this many plans are costed (checked between bank
// combinations and column orders, so a search may overshoot by one
// combination's plans). Deterministic, unlike the stopwatch: the same
// instance always stops at the same plan. Twelve times what the rho =
// 0.1% stopwatch let any perfbench query cost (340 plans, TPC-H Q3 on a
// 4-vCPU host); it binds on unbounded (rho = 0) searches over wide keys.
inline constexpr size_t kMaxPlansCosted = 4096;

struct SearchOptions {
  // Time threshold rho: stop when elapsed > rho * best-plan estimated
  // runtime. The paper recommends 0.1%. 0 disables the time bound ("N/S"
  // in Appendix C); kMaxPlansCosted still applies.
  double rho = 0.001;
  // Budget floor in seconds: rho * T(P*) can be microseconds for small
  // instances (the paper's SF 1-10 instances imply budgets of 0.1 ms and
  // up); the floor keeps the search meaningful at reduced scales. Plans
  // with one round are always explored regardless of the budget.
  double min_budget_seconds = 200e-6;
  // Permute the column order (GROUP BY / PARTITION BY semantics). For
  // ORDER BY the attribute order is fixed.
  bool permute_columns = false;
  // When permuting, only the first `permute_prefix` columns are order-free
  // (-1 = all). PARTITION BY p1, p2 ORDER BY o uses prefix = 2: the window
  // order attribute must stay last.
  int permute_prefix = -1;
  // Safety cap on the round count explored (on top of Lemma 2).
  int max_rounds_cap = 12;
  // Bank-width cap in bits (0 = unrestricted): only plans whose rounds all
  // use banks <= max_bank are considered. The executor re-plans with a cap
  // when the unrestricted plan's scratch estimate exceeds the ExecContext's
  // scratch budget — narrower banks mean narrower key columns and scratch.
  // Any width is feasible at the narrowest cap (16): rounds split the
  // concatenated bits at arbitrary boundaries, so the search seeds P* with
  // ceil(W / max_bank) rounds of max_bank bits instead of P0 when P0 would
  // violate the cap.
  int max_bank = 0;
  // Cooperative stop: a stoppable context makes the search return its best
  // plan so far as soon as a cancellation / deadline / injected fault is
  // observed (flagged as timed_out). The caller re-checks the context and
  // discards the result on a stop. Borrowed; may be null.
  const ExecContext* ctx = nullptr;
  // Kernel-choice dimension: every candidate plan is costed with the
  // cheapest allowed kernel per round (cost_model.h), and the winning
  // plan's rounds are annotated with the chosen kernels for the executor.
  // Defaults to all routable kernels, restrictable via MCSORT_KERNELS.
  SortKernelMask kernels = KernelMaskFromEnv();
};

struct SearchResult {
  MassagePlan plan;                // best plan found
  double estimated_cycles = 0;     // its T_mcs estimate
  std::vector<int> column_order;   // input permutation the plan applies to
  size_t plans_costed = 0;         // number of full plans costed
  double search_seconds = 0;       // wall time spent searching
  bool timed_out = false;          // stopped by the rho stopwatch
  bool truncated = false;          // stopped by kMaxPlansCosted
};

SearchResult RogaSearch(const CostModel& model, const SortInstanceStats& stats,
                        const SearchOptions& options = {});

}  // namespace mcsort

#endif  // MCSORT_PLAN_ROGA_H_
