#include "mcsort/plan/roga.h"

#include <algorithm>
#include <numeric>

#include "mcsort/common/bits.h"
#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/common/timer.h"
#include "mcsort/plan/enumerate.h"

namespace mcsort {
namespace {

// Plan seed when the bank cap rules out P0: ceil(W / bank) rounds of at
// most `bank` bits, all at the capped bank. Feasible for every W because
// rounds split the concatenated key bits at arbitrary boundaries.
MassagePlan NarrowestPlan(int total_width, int bank) {
  std::vector<Round> rounds;
  for (int remaining = total_width; remaining > 0; remaining -= bank) {
    rounds.push_back({std::min(remaining, bank), bank});
  }
  return MassagePlan(std::move(rounds));
}

bool WithinBankCap(const MassagePlan& plan, int max_bank) {
  if (max_bank <= 0) return true;
  for (const Round& round : plan.rounds()) {
    if (round.bank > max_bank) return false;
  }
  return true;
}

struct SearchState {
  const CostModel* model;
  const SearchOptions* options;
  Timer stopwatch;
  MassagePlan best_plan;
  double best_cycles = 0;
  std::vector<int> best_order;
  size_t plans_costed = 0;
  bool timed_out = false;
  bool truncated = false;

  // Line 6 of Algorithm 1: elapsed > rho * T_mcs(P*)? Also the search's
  // cooperative stop point: a cancellation / deadline / injected fault on
  // the attached ExecContext ends the search the same way the stopwatch
  // does (best-so-far plan, timed_out flagged); the caller re-checks the
  // context and discards the result.
  bool TimeUp() {
    if (options->ctx != nullptr && options->ctx->StopRequested()) {
      timed_out = true;
      return true;
    }
    if (plans_costed >= kMaxPlansCosted) {
      truncated = true;
      return true;
    }
    if (options->rho <= 0) return false;
    const double best_seconds = best_cycles / (model->params().ghz * 1e9);
    // The floor keeps small-scale searches meaningful but must never
    // exceed a tenth of the plan's own runtime (sub-millisecond sorts
    // cannot afford a fixed 200us search).
    const double floor_seconds =
        std::min(options->min_budget_seconds, 0.1 * best_seconds);
    const double budget_seconds =
        std::max(options->rho * best_seconds, floor_seconds);
    if (stopwatch.Seconds() > budget_seconds) {
      timed_out = true;
      return true;
    }
    return false;
  }

  void Consider(const MassagePlan& plan, const SortInstanceStats& stats,
                const std::vector<int>& order) {
    const CostModel::PlanEstimate est =
        model->Estimate(plan, stats, options->kernels);
    ++plans_costed;
    if (est.total_cycles < best_cycles) {
      best_cycles = est.total_cycles;
      best_plan = plan;
      AnnotateKernels(&best_plan, est);
      best_order = order;
    }
  }

  // Stamps the cost-chosen kernel of each round onto the plan, so the
  // executor dispatches without re-running the model.
  static void AnnotateKernels(MassagePlan* plan,
                              const CostModel::PlanEstimate& est) {
    for (size_t j = 0; j < plan->num_rounds(); ++j) {
      plan->mutable_round(j)->kernel = est.rounds[j].kernel;
    }
  }
};

// Bounds for the bits a_i of round i given what is already assigned and
// the capacities of the remaining rounds.
struct WidthBounds {
  int lo;
  int hi;
};
WidthBounds BoundsForRound(int total_width, int assigned,
                           const std::vector<int>& combo, int i) {
  const int k = static_cast<int>(combo.size());
  int capacity_after = 0;
  for (int j = i + 1; j < k; ++j) capacity_after += combo[static_cast<size_t>(j)];
  const int remaining = total_width - assigned;
  WidthBounds bounds;
  bounds.lo = std::max(1, remaining - capacity_after);
  bounds.hi = std::min(combo[static_cast<size_t>(i)],
                       remaining - (k - 1 - i));  // leave >= 1 per later round
  return bounds;
}

// Explores one bank combination for one column order.
void ExploreCombo(const std::vector<int>& combo,
                  const SortInstanceStats& stats,
                  const std::vector<int>& order, SearchState* state) {
  const int total_width = stats.total_width();
  const int k = static_cast<int>(combo.size());

  if (k == 1) {
    if (total_width <= combo[0]) {
      state->Consider(MassagePlan({{total_width, combo[0]}}), stats, order);
    }
    return;
  }

  if (k == 2) {
    // Small subspace: cost every assignment (the paper costs all 16 plans
    // of the {a1/[16], a2/[64]} example).
    const WidthBounds bounds = BoundsForRound(total_width, 0, combo, 0);
    for (int a1 = bounds.lo; a1 <= bounds.hi; ++a1) {
      const int a2 = total_width - a1;
      if (a2 < 1 || a2 > combo[1]) continue;
      state->Consider(MassagePlan({{a1, combo[0]}, {a2, combo[1]}}), stats,
                      order);
    }
    return;
  }

  // k >= 3: greedy construction. Choose a_i (i = 1..k-1) minimizing the
  // estimated sorting cost of round i+1; the remainder goes to round k.
  std::vector<Round> rounds;
  int assigned = 0;
  for (int i = 0; i < k - 1; ++i) {
    const WidthBounds bounds = BoundsForRound(total_width, assigned, combo, i);
    if (bounds.lo > bounds.hi) return;  // infeasible
    int best_a = bounds.lo;
    double best_next = -1;
    for (int a = bounds.lo; a <= bounds.hi; ++a) {
      const double next = state->model->NextRoundSortCycles(
          stats, assigned + a, combo[static_cast<size_t>(i + 1)]);
      if (best_next < 0 || next < best_next) {
        best_next = next;
        best_a = a;
      }
    }
    rounds.push_back({best_a, combo[static_cast<size_t>(i)]});
    assigned += best_a;
  }
  const int last = total_width - assigned;
  if (last < 1 || last > combo.back()) return;
  rounds.push_back({last, combo.back()});
  state->Consider(MassagePlan(std::move(rounds)), stats, order);
}

void ExploreOrder(const SortInstanceStats& stats,
                  const std::vector<int>& order, SearchState* state) {
  const int total_width = stats.total_width();
  const int max_rounds =
      std::min(MaxUsefulRounds(total_width), state->options->max_rounds_cap);
  const int max_bank = state->options->max_bank;
  for (int k = 1; k <= max_rounds; ++k) {
    for (const std::vector<int>& combo : ValidBankCombos(total_width, k)) {
      // One-round plans are so cheap to cost that they are always
      // explored; the stopwatch governs everything beyond.
      if (k > 1 && state->TimeUp()) return;
      if (max_bank > 0 &&
          *std::max_element(combo.begin(), combo.end()) > max_bank) {
        continue;  // combo exceeds the scratch-degradation bank cap
      }
      ExploreCombo(combo, stats, order, state);
    }
  }
}

}  // namespace

SearchResult RogaSearch(const CostModel& model, const SortInstanceStats& stats,
                        const SearchOptions& options) {
  MCSORT_CHECK(!stats.columns.empty());
  SearchState state;
  state.model = &model;
  state.options = &options;

  std::vector<int> identity(stats.columns.size());
  std::iota(identity.begin(), identity.end(), 0);

  // Initialize P* with the original column-at-a-time plan (line 2) — or,
  // when a bank cap rules P0 out, with the narrowest capped plan, which is
  // feasible for every total width.
  state.best_plan = MassagePlan::ColumnAtATime(stats.widths());
  if (!WithinBankCap(state.best_plan, options.max_bank)) {
    state.best_plan = NarrowestPlan(stats.total_width(), options.max_bank);
  }
  {
    const CostModel::PlanEstimate est =
        model.Estimate(state.best_plan, stats, options.kernels);
    state.best_cycles = est.total_cycles;
    SearchState::AnnotateKernels(&state.best_plan, est);
  }
  state.best_order = identity;
  state.plans_costed = 1;

  if (!options.permute_columns) {
    ExploreOrder(stats, identity, &state);
  } else {
    // GROUP BY / PARTITION BY: repeat for every column permutation
    // (lines 21-22); m is small (<= 7 in TPC-H). Only the first
    // `permute_prefix` columns are order-free.
    const size_t prefix = options.permute_prefix < 0
                              ? stats.columns.size()
                              : std::min<size_t>(
                                    static_cast<size_t>(options.permute_prefix),
                                    stats.columns.size());
    std::vector<int> head(identity.begin(),
                          identity.begin() + static_cast<long>(prefix));
    do {
      if (state.TimeUp()) break;
      std::vector<int> order = head;
      order.insert(order.end(), identity.begin() + static_cast<long>(prefix),
                   identity.end());
      ExploreOrder(stats.Permuted(order), order, &state);
    } while (std::next_permutation(head.begin(), head.end()));
  }

  SearchResult result;
  result.plan = state.best_plan;
  result.estimated_cycles = state.best_cycles;
  result.column_order = state.best_order;
  result.plans_costed = state.plans_costed;
  result.search_seconds = state.stopwatch.Seconds();
  result.timed_out = state.timed_out;
  result.truncated = state.truncated;
  return result;
}

}  // namespace mcsort
