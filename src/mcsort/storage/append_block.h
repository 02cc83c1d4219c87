// AppendBlock — fixed-capacity storage shared by successive immutable
// images of one growing column (merge-at-scan's extended images, see
// delta/merge_scan.h).
//
// Each image views a prefix [0, rows) of the block and reads nothing past
// it. Rows are only ever written past the block's high-water mark, after a
// successful Claim, so an append writes no byte an older image can read.
// Claim moves the mark atomically and succeeds at most once from any given
// mark: two images extended from the same predecessor can never write the
// same rows (the second one falls back to a fresh build).
#ifndef MCSORT_STORAGE_APPEND_BLOCK_H_
#define MCSORT_STORAGE_APPEND_BLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "mcsort/common/aligned_buffer.h"

namespace mcsort {

class AppendBlock {
 public:
  // `bytes` of uninitialized storage holding up to `capacity_rows` rows, of
  // which the creator writes the first `rows` before publishing any image.
  AppendBlock(size_t bytes, size_t capacity_rows, size_t rows)
      : data_(bytes), capacity_rows_(capacity_rows), end_(rows) {}

  AppendBlock(const AppendBlock&) = delete;
  AppendBlock& operator=(const AppendBlock&) = delete;

  uint8_t* data() { return data_.data(); }
  size_t capacity_rows() const { return capacity_rows_; }

  // Grants the caller rows [from, to) to write: true iff `from` is the
  // current high-water mark and `to` fits the capacity.
  bool Claim(size_t from, size_t to) {
    if (to > capacity_rows_ || to < from) return false;
    size_t expected = from;
    return end_.compare_exchange_strong(expected, to,
                                        std::memory_order_acq_rel);
  }

 private:
  AlignedBuffer<uint8_t> data_;
  const size_t capacity_rows_;
  std::atomic<size_t> end_;
};

}  // namespace mcsort

#endif  // MCSORT_STORAGE_APPEND_BLOCK_H_
