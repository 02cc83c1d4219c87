// Packed result bit vector produced by scans (one bit per row) and
// converted to an oid list for lookups — the scan/lookup interface of
// Sec. 2 ("a scan ... returns a result bit vector ... converted into a
// list of record numbers").
#ifndef MCSORT_SCAN_BITVECTOR_H_
#define MCSORT_SCAN_BITVECTOR_H_

#include <cstdint>
#include <vector>

#include "mcsort/common/logging.h"
#include "mcsort/storage/types.h"

namespace mcsort {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n) { Resize(n); }

  void Resize(size_t n) {
    size_ = n;
    words_.assign((n + 63) / 64, 0);
  }

  size_t size() const { return size_; }

  void SetAll();

  bool Get(size_t i) const {
    MCSORT_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    MCSORT_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Clear(size_t i) {
    MCSORT_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  // Writes 32 result bits for rows [32*block, 32*block + 32); the scan
  // kernels emit movemask blocks of 32.
  void SetBlock32(size_t block, uint32_t mask) {
    const size_t word = block >> 1;
    MCSORT_DCHECK(word < words_.size());
    if (block & 1) {
      words_[word] = (words_[word] & 0x00000000FFFFFFFFull) |
                     (static_cast<uint64_t>(mask) << 32);
    } else {
      words_[word] = (words_[word] & 0xFFFFFFFF00000000ull) | mask;
    }
  }

  // Zeros any bits past the logical size in the last word (block writers
  // like SetBlock32 may spill into them).
  void ClearPastEnd() {
    const size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  // In-place conjunction/disjunction with a same-sized vector.
  void And(const BitVector& other);
  void Or(const BitVector& other);

  uint64_t CountOnes() const;

  // Appends the positions of set bits, in order, to `oids`.
  void ToOidList(std::vector<Oid>* oids) const;

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace mcsort

#endif  // MCSORT_SCAN_BITVECTOR_H_
