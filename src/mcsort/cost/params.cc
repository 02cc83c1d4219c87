#include "mcsort/cost/params.h"

#include <algorithm>

#include "mcsort/common/cpu_info.h"

namespace mcsort {

CostParams CostParams::Default() {
  CostParams params;
  const CpuInfo& cpu = CpuInfo::Get();
  // Cap the effective LLC: virtualized environments report host-sized L3
  // caches that a single guest vCPU cannot actually keep warm; calibration
  // fits C_cache/C_mem against whatever value is used here.
  params.llc_bytes = std::min<size_t>(cpu.llc_bytes, 32u << 20);
  params.l2_bytes = cpu.l2_bytes;
  params.ghz = cpu.ghz;
  // C_cache / C_mem are *effective amortized* per-access costs of a gather
  // loop: out-of-order execution keeps many misses in flight, so the
  // per-item cost is far below the raw miss latency (calibration measures
  // exactly this quantity, as does the paper's).
  params.cache_cycles = 4.0;
  params.mem_cycles = 30.0;
  params.massage_cycles = 1.5;
  params.scan_cycles = 2.0;
  // Per-bank sort constants. C_in-cache-merge covers *all* in-cache merge
  // passes (the pass count is fixed by L2 size per Eq. 7, so it folds into
  // the constant) — hence its magnitude. Wider banks cost roughly 2x per
  // code (half the lanes; 64-bit compares also need extra instructions on
  // AVX2), and the 16-bit bank is only marginally different from 32-bit
  // (footnote 4: missing 16-bit instructions are simulated).
  params.bank16 = {300.0, 2.5, 44.0, 2.0};
  params.bank32 = {300.0, 2.2, 48.0, 2.5};
  params.bank64 = {350.0, 6.0, 110.0, 4.5};
  // Counting: per-row cost is a couple of array updates when the histogram
  // stays cache-resident, a scattered miss when it does not.
  params.counting = {300.0, 2.0, 3.0, 12.0};
  // Radix: fit to a micro_kernels sweep of BM_RoundSort (16-, 32- and
  // 64-bit banks, 2^17-2^21-row rounds and 128-65536-row segments) in the
  // units of the merge defaults above: each shape's target is the merge
  // term times the measured radix/merge time ratio, so the two terms rank
  // kernels as the measurements do (DESIGN.md §11). The large overhead
  // keeps rounds of ~100-row groups on merge, where the two kernels tie.
  params.radix = {3300.0, 5.0, 8.0};
  return params;
}

}  // namespace mcsort
