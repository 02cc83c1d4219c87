// Code massage plans (Sec. 3).
//
// A plan partitions the W = sum(w_i) bits of the concatenated sort key into
// k rounds; round i sorts a_i bits with a b_i-bit-bank SIMD-sort. The
// paper's notation {R1: 18/[32], R2: 32/[32]} maps to
// rounds() = [{18, 32}, {32, 32}].
//
// The original column-at-a-time plan P0 has one round per input column with
// the column's minimal bank. Lemma 1 guarantees any re-partitioning of the
// bits produces the same sorted order of object identifiers.
#ifndef MCSORT_MASSAGE_PLAN_H_
#define MCSORT_MASSAGE_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mcsort {

// Which single-column sort kernel executes a round. kSimdMerge is the
// paper's merge-sort with sorting-network kernel [5]; kCounting is the
// CAFS-style O(N + K) frequency sort for rounds whose domain (and
// distinct count) is small relative to N; kRadix is the LSD radix sort
// (Sec. 7), one stable counting pass per 8-bit digit of the round width.
enum class SortKernel { kSimdMerge, kCounting, kRadix };

const char* SortKernelName(SortKernel kernel);

// Bitmask over SortKernel values — the plan search's kernel-choice
// dimension. The cost model prices every kernel, so all of them are
// routable.
using SortKernelMask = uint32_t;
constexpr SortKernelMask KernelBit(SortKernel kernel) {
  return SortKernelMask{1} << static_cast<int>(kernel);
}
constexpr SortKernelMask kRoutableKernels =
    KernelBit(SortKernel::kSimdMerge) | KernelBit(SortKernel::kCounting) |
    KernelBit(SortKernel::kRadix);

// Every kernel, in enum order (for loops over the kernel dimension).
constexpr SortKernel kAllSortKernels[] = {
    SortKernel::kSimdMerge, SortKernel::kCounting, SortKernel::kRadix};

// Parses a comma-separated kernel list ("merge" or its alias "simd",
// "counting", "radix"). Each unknown token — including the retired "ovc"
// — is reported on stderr and skipped; an empty or wholly unknown list
// returns `fallback`.
SortKernelMask ParseKernelMask(const std::string& text,
                               SortKernelMask fallback);

// The MCSORT_KERNELS debugging override (mirrors MCSORT_RHO): restricts
// the planner's kernel-choice dimension, and — when exactly one kernel is
// named — forces the executor's per-round dispatch to it. The variable is
// read and parsed once per process, so a bad token warns once.
SortKernelMask KernelMaskFromEnv(SortKernelMask fallback = kRoutableKernels);

// One round of sorting: `width` bits of the concatenated key sorted with a
// `bank`-bit-bank SIMD-sort. 1 <= width <= bank, bank in {16, 32, 64}.
// `kernel` is the cost-chosen sort kernel for the round (a pure execution
// annotation: Lemma 1 output equivalence holds for any kernel choice).
struct Round {
  int width = 0;
  int bank = 0;
  SortKernel kernel = SortKernel::kSimdMerge;

  friend bool operator==(const Round&, const Round&) = default;
};

class MassagePlan {
 public:
  MassagePlan() = default;
  explicit MassagePlan(std::vector<Round> rounds);

  // The column-at-a-time plan P0 for input columns of the given widths:
  // one round per column, minimal bank per width.
  static MassagePlan ColumnAtATime(const std::vector<int>& widths);

  // A plan with the given round widths and the minimal bank per round.
  static MassagePlan WithMinimalBanks(const std::vector<int>& widths);

  const std::vector<Round>& rounds() const { return rounds_; }
  size_t num_rounds() const { return rounds_.size(); }
  const Round& round(size_t i) const { return rounds_[i]; }
  // Mutable access for kernel annotation (the plan search stamps the
  // cost-chosen kernel onto each round of the winning plan).
  Round* mutable_round(size_t i) { return &rounds_[i]; }

  // W: total bits covered by the plan.
  int total_width() const;

  // Checks structural validity: nonempty, widths >= 1, width <= bank,
  // banks in {16, 32, 64}.
  bool IsValid() const;

  // Round widths only (the FIP computation's "output widths").
  std::vector<int> widths() const;

  // Paper notation, e.g. "{R1: 18/[32], R2: 32/[32]}".
  std::string ToString() const;

  friend bool operator==(const MassagePlan&, const MassagePlan&) = default;

 private:
  std::vector<Round> rounds_;
};

}  // namespace mcsort

#endif  // MCSORT_MASSAGE_PLAN_H_
