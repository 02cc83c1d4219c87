// Bit-level helpers shared by the encoding, massaging, and SIMD layers.
//
// Terminology follows the paper: a column holds w-bit unsigned *codes*
// (w in [1, 64]); a SIMD sort operates on b-bit *banks* (b in {16, 32, 64});
// `size(w)` is the byte width of the smallest machine type that holds a
// w-bit code (Sec. 4, "Estimating T_lookup").
#ifndef MCSORT_COMMON_BITS_H_
#define MCSORT_COMMON_BITS_H_

#include <cstdint>

#include "mcsort/common/logging.h"

namespace mcsort {

// Maximum total key width supported by code massaging: the widest AVX2 bank.
inline constexpr int kMaxBankBits = 64;
// Bank sizes usable by the SIMD sort implementations, ascending. 8-bit banks
// are excluded for the reason given in the paper's footnote 4.
inline constexpr int kBankSizes[] = {16, 32, 64};
inline constexpr int kNumBankSizes = 3;
inline constexpr int kMinBankBits = 16;

// Returns a mask with the low `w` bits set. `w` in [0, 64].
constexpr uint64_t LowBitsMask(int w) {
  return w >= 64 ? ~uint64_t{0} : ((uint64_t{1} << w) - 1);
}

// size(w) from the paper: bytes of the smallest power-of-two-sized integer
// type holding a w-bit code. size(15) == 2, size(17) == 4, size(33..64) == 8.
constexpr int SizeOfWidth(int w) {
  if (w <= 8) return 1;
  if (w <= 16) return 2;
  if (w <= 32) return 4;
  return 8;
}

// The minimum SIMD bank size (bits) able to hold a w-bit code. Codes of
// width <= 16 use 16-bit banks; there is no 8-bit bank (footnote 4).
constexpr int MinBankForWidth(int w) {
  if (w <= 16) return 16;
  if (w <= 32) return 32;
  return 64;
}

// Number of bits needed to represent values in [0, v] (at least 1).
constexpr int BitsForValue(uint64_t v) {
  int bits = 1;
  while (bits < 64 && (v >> bits) != 0) ++bits;
  return bits;
}

// Number of bits needed to index `n` distinct values, i.e. represent
// codes in [0, n-1]. BitsForCount(1) == 1 by convention (a 0-bit column is
// not representable).
constexpr int BitsForCount(uint64_t n) {
  return n <= 1 ? 1 : BitsForValue(n - 1);
}

// Extracts bits [hi, lo] (inclusive, hi >= lo, 0-based from LSB) of `code`.
constexpr uint64_t ExtractBits(uint64_t code, int hi, int lo) {
  MCSORT_DCHECK(hi >= lo && hi < 64 && lo >= 0);
  return (code >> lo) & LowBitsMask(hi - lo + 1);
}

// w-bit complement used by code massaging for DESC columns (Sec. 3, Fig. 5):
// complement(x, w) = (2^w - 1) - x, i.e. bit-flip within the code width.
constexpr uint64_t ComplementCode(uint64_t code, int w) {
  return (~code) & LowBitsMask(w);
}

// Rounds `n` up to a multiple of `m` (m > 0).
constexpr uint64_t RoundUp(uint64_t n, uint64_t m) {
  return ((n + m - 1) / m) * m;
}

}  // namespace mcsort

#endif  // MCSORT_COMMON_BITS_H_
