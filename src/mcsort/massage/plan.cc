#include "mcsort/massage/plan.h"

#include <cctype>
#include <cstdio>
#include <numeric>
#include <utility>

#include "mcsort/common/bits.h"
#include "mcsort/common/env.h"
#include "mcsort/common/logging.h"

namespace mcsort {

const char* SortKernelName(SortKernel kernel) {
  switch (kernel) {
    case SortKernel::kSimdMerge: return "merge";
    case SortKernel::kCounting: return "counting";
    case SortKernel::kRadix: return "radix";
  }
  return "?";
}

SortKernelMask ParseKernelMask(const std::string& text,
                               SortKernelMask fallback) {
  SortKernelMask mask = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    // Trim surrounding whitespace: "merge, counting" must parse.
    size_t begin = pos;
    size_t end = comma;
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
    const std::string token = text.substr(begin, end - begin);
    if (token == "merge" || token == "simd") {
      mask |= KernelBit(SortKernel::kSimdMerge);
    } else if (token == "counting") {
      mask |= KernelBit(SortKernel::kCounting);
    } else if (token == "radix") {
      mask |= KernelBit(SortKernel::kRadix);
    } else if (!token.empty()) {
      std::fprintf(stderr,
                   "[mcsort] unknown sort kernel '%s' ignored "
                   "(known: merge, counting, radix)\n",
                   token.c_str());
    }
    pos = comma + 1;
  }
  return mask == 0 ? fallback : mask;
}

SortKernelMask KernelMaskFromEnv(SortKernelMask fallback) {
  static const SortKernelMask env_mask =
      ParseKernelMask(EnvStr("MCSORT_KERNELS", ""), 0);
  return env_mask == 0 ? fallback : env_mask;
}

MassagePlan::MassagePlan(std::vector<Round> rounds)
    : rounds_(std::move(rounds)) {}

MassagePlan MassagePlan::ColumnAtATime(const std::vector<int>& widths) {
  return WithMinimalBanks(widths);
}

MassagePlan MassagePlan::WithMinimalBanks(const std::vector<int>& widths) {
  std::vector<Round> rounds;
  rounds.reserve(widths.size());
  for (int w : widths) {
    MCSORT_CHECK(w >= 1 && w <= kMaxBankBits);
    rounds.push_back({w, MinBankForWidth(w)});
  }
  return MassagePlan(std::move(rounds));
}

int MassagePlan::total_width() const {
  int total = 0;
  for (const Round& r : rounds_) total += r.width;
  return total;
}

bool MassagePlan::IsValid() const {
  if (rounds_.empty()) return false;
  for (const Round& r : rounds_) {
    if (r.width < 1 || r.width > r.bank) return false;
    if (r.bank != 16 && r.bank != 32 && r.bank != 64) return false;
  }
  return true;
}

std::vector<int> MassagePlan::widths() const {
  std::vector<int> result;
  result.reserve(rounds_.size());
  for (const Round& r : rounds_) result.push_back(r.width);
  return result;
}

std::string MassagePlan::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < rounds_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "R" + std::to_string(i + 1) + ": " +
           std::to_string(rounds_[i].width) + "/[" +
           std::to_string(rounds_[i].bank) + "]";
    // Non-default kernels are annotated; the paper's notation stays
    // unchanged for plain merge rounds (tests compare against it).
    if (rounds_[i].kernel != SortKernel::kSimdMerge) {
      out += std::string(":") + SortKernelName(rounds_[i].kernel);
    }
  }
  out += "}";
  return out;
}

}  // namespace mcsort
