#include "mcsort/scan/byteslice_scan.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "mcsort/common/exec_context.h"
#include "mcsort/common/logging.h"
#include "mcsort/simd/simd.h"

namespace mcsort {
namespace {

#if MCSORT_HAVE_AVX2

// Evaluates one 32-row block (`block[j]` = its 32 bytes of slice j),
// returning (lt, eq) masks as movemask bits (bit i = row i of the block).
inline void ScanBlock(const uint8_t* const* block, int slices,
                      const uint8_t* literal, uint32_t* out_lt,
                      uint32_t* out_eq) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  __m256i m_lt = _mm256_setzero_si256();
  __m256i m_eq = _mm256_set1_epi8(static_cast<char>(0xFF));
  for (int j = 0; j < slices; ++j) {
    const __m256i d =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(block[j]));
    const __m256i lit = _mm256_set1_epi8(static_cast<char>(literal[j]));
    // Unsigned byte compare via sign-bias + signed cmpgt.
    const __m256i lt_j = _mm256_cmpgt_epi8(_mm256_xor_si256(lit, bias),
                                           _mm256_xor_si256(d, bias));
    const __m256i eq_j = _mm256_cmpeq_epi8(d, lit);
    m_lt = _mm256_or_si256(m_lt, _mm256_and_si256(m_eq, lt_j));
    m_eq = _mm256_and_si256(m_eq, eq_j);
    // Early stopping: no lane still tied => later slices are irrelevant.
    if (_mm256_testz_si256(m_eq, m_eq)) break;
  }
  *out_lt = static_cast<uint32_t>(_mm256_movemask_epi8(m_lt));
  *out_eq = static_cast<uint32_t>(_mm256_movemask_epi8(m_eq));
}

#else  // !MCSORT_HAVE_AVX2

inline void ScanBlock(const uint8_t* const* block, int slices,
                      const uint8_t* literal, uint32_t* out_lt,
                      uint32_t* out_eq) {
  uint32_t lt = 0;
  uint32_t eq = 0;
  for (int i = 0; i < 32; ++i) {
    bool is_lt = false;
    bool is_eq = true;
    for (int j = 0; j < slices && is_eq; ++j) {
      const uint8_t d = block[j][i];
      if (d < literal[j]) {
        is_lt = true;
        is_eq = false;
      } else if (d > literal[j]) {
        is_eq = false;
      }
    }
    if (is_lt) lt |= uint32_t{1} << i;
    if (is_eq) eq |= uint32_t{1} << i;
  }
  *out_lt = lt;
  *out_eq = eq;
}

#endif  // MCSORT_HAVE_AVX2

uint32_t CombineMasks(CompareOp op, uint32_t lt, uint32_t eq) {
  switch (op) {
    case CompareOp::kLess: return lt;
    case CompareOp::kLessEq: return lt | eq;
    case CompareOp::kEq: return eq;
    case CompareOp::kNeq: return ~eq;
    case CompareOp::kGreaterEq: return ~lt;
    case CompareOp::kGreater: return ~(lt | eq);
  }
  return 0;
}

// Splits an encoded literal into the per-slice bytes (MSB first), applying
// the same left-alignment padding as stored codes.
void SplitLiteral(const ByteSliceColumn& column, Code literal,
                  uint8_t bytes[8]) {
  const Code padded = column.PadCode(literal);
  const int slices = column.num_slices();
  MCSORT_CHECK(slices <= 8);
  for (int j = 0; j < slices && j < 8; ++j) {
    bytes[j] = static_cast<uint8_t>(padded >> (8 * (slices - 1 - j)));
  }
}

// The slice bytes of one 32-row block. A full block is read in place. The
// last, partial block is copied into `tail` with zeros past the last row,
// so a scan never reads past size(): an extended layout may be writing
// its rows there in shared storage (storage/append_block.h).
class BlockSlices {
 public:
  BlockSlices(const ByteSliceColumn& column, size_t block) {
    const int slices = column.num_slices();
    MCSORT_CHECK(slices <= 8);
    const size_t base = 32 * block;
    const size_t rows = std::min<size_t>(32, column.size() - base);
    for (int j = 0; j < slices; ++j) {
      if (rows == 32) {
        ptrs_[j] = column.slice(j) + base;
      } else {
        std::memset(tail_[j], 0, 32);
        std::memcpy(tail_[j], column.slice(j) + base, rows);
        ptrs_[j] = tail_[j];
      }
    }
  }
  const uint8_t* const* get() const { return ptrs_; }

 private:
  const uint8_t* ptrs_[8] = {};
  alignas(32) uint8_t tail_[8][32];
};

}  // namespace

namespace {

// Runs `body(block)` over all 32-row blocks, optionally in parallel.
// Parallel ranges are aligned to block *pairs*: two adjacent blocks share
// one 64-bit result word (SetBlock32 is a read-modify-write), so a word
// must never straddle two workers.
template <typename Fn>
void ForEachBlock(size_t n, ThreadPool* pool, const ExecContext* ctx,
                  const Fn& body) {
  const size_t blocks = RoundUp(n, 32) / 32;
  const bool stoppable = ctx != nullptr && ctx->stoppable();
  if (pool == nullptr || pool->num_threads() <= 1 || blocks < 64) {
    // Serial path: a coarse stop check every 1024 blocks (32k rows) keeps
    // the per-block cost at zero for plain contexts.
    for (size_t block = 0; block < blocks; ++block) {
      if (stoppable && (block & 1023) == 0 && ctx->StopRequested()) return;
      body(block);
    }
    return;
  }
  const size_t pairs = (blocks + 1) / 2;
  pool->ParallelFor(
      pairs,
      [&](uint64_t begin, uint64_t end, int) {
        for (uint64_t pair = begin; pair < end; ++pair) {
          const size_t first = static_cast<size_t>(2 * pair);
          body(first);
          if (first + 1 < blocks) body(first + 1);
        }
      },
      ctx);
}

}  // namespace

void ByteSliceScan(const ByteSliceColumn& column, CompareOp op, Code literal,
                   BitVector* result, ThreadPool* pool,
                   const ExecContext* ctx) {
  const size_t n = column.size();
  result->Resize(n);
  uint8_t literal_bytes[8] = {0};
  SplitLiteral(column, literal, literal_bytes);
  ForEachBlock(n, pool, ctx, [&](size_t block) {
    uint32_t lt = 0;
    uint32_t eq = 0;
    const BlockSlices slices(column, block);
    ScanBlock(slices.get(), column.num_slices(), literal_bytes, &lt, &eq);
    result->SetBlock32(block, CombineMasks(op, lt, eq));
  });
  result->ClearPastEnd();
}

void ByteSliceScanBetween(const ByteSliceColumn& column, Code lo, Code hi,
                          BitVector* result, ThreadPool* pool,
                          const ExecContext* ctx) {
  MCSORT_CHECK(lo <= hi);
  const size_t n = column.size();
  result->Resize(n);
  uint8_t lo_bytes[8] = {0};
  uint8_t hi_bytes[8] = {0};
  SplitLiteral(column, lo, lo_bytes);
  SplitLiteral(column, hi, hi_bytes);
  ForEachBlock(n, pool, ctx, [&](size_t block) {
    uint32_t lt_lo = 0, eq_lo = 0, lt_hi = 0, eq_hi = 0;
    const BlockSlices slices(column, block);
    ScanBlock(slices.get(), column.num_slices(), lo_bytes, &lt_lo, &eq_lo);
    ScanBlock(slices.get(), column.num_slices(), hi_bytes, &lt_hi, &eq_hi);
    const uint32_t ge_lo = ~lt_lo;
    const uint32_t le_hi = lt_hi | eq_hi;
    result->SetBlock32(block, ge_lo & le_hi);
  });
  result->ClearPastEnd();
}

}  // namespace mcsort
