#include "mcsort/storage/byteslice.h"

#include <algorithm>

#include "mcsort/common/bits.h"

namespace mcsort {
namespace {

// Writes slice bytes of rows [begin, end) of `column`: slice j gets byte j
// (MSB first) of code << padding.
void WriteSlices(const EncodedColumn& column, size_t begin, size_t end,
                 uint8_t* const* slices, int num_slices) {
  const int padding = 8 * num_slices - column.width();
  VisitCodes(column, [&](const auto* codes) {
    for (int j = 0; j < num_slices; ++j) {
      uint8_t* out = slices[j];
      // Only the last slice shifts left.
      const int right = 8 * (num_slices - 1 - j) - padding;
      if (right >= 0) {
        for (size_t i = begin; i < end; ++i) {
          out[i] = static_cast<uint8_t>(codes[i] >> right);
        }
      } else {
        for (size_t i = begin; i < end; ++i) {
          out[i] = static_cast<uint8_t>(codes[i] << -right);
        }
      }
    }
  });
}

}  // namespace

ByteSliceColumn ByteSliceColumn::Build(const EncodedColumn& column,
                                       size_t capacity_rows) {
  ByteSliceColumn bs;
  bs.width_ = column.width();
  bs.size_ = column.size();
  const size_t n = column.size();
  const size_t rows = std::max(capacity_rows, n);
  const size_t num_slices = static_cast<size_t>((column.width() + 7) / 8);
  // Pad the slice length to a SIMD block so scans can run full blocks.
  const size_t padded_n = slice_bytes(n);
  bs.block_stride_ = RoundUp(slice_bytes(rows), kSimdAlignment);
  bs.block_ =
      std::make_shared<AppendBlock>(num_slices * bs.block_stride_, rows, n);
  bs.slices_.resize(num_slices);
  std::vector<uint8_t*> outs(num_slices);
  for (size_t j = 0; j < num_slices; ++j) {
    outs[j] = bs.block_->data() + j * bs.block_stride_;
    bs.slices_[j].ResetView(outs[j], padded_n);
  }
  WriteSlices(column, 0, n, outs.data(), bs.num_slices());
  for (uint8_t* out : outs) std::fill(out + n, out + padded_n, uint8_t{0});
  return bs;
}

bool ByteSliceColumn::Extend(const EncodedColumn& column,
                             ByteSliceColumn* out) const {
  MCSORT_CHECK(column.width() == width_ && column.size() >= size_);
  const size_t n = column.size();
  // A layout adopted by FromParts has no block to grow into.
  if (block_ == nullptr || !block_->Claim(size_, n)) return false;
  ByteSliceColumn bs;
  bs.width_ = width_;
  bs.size_ = n;
  bs.block_ = block_;
  bs.block_stride_ = block_stride_;
  bs.slices_.resize(slices_.size());
  std::vector<uint8_t*> outs(slices_.size());
  for (size_t j = 0; j < slices_.size(); ++j) {
    outs[j] = block_->data() + j * block_stride_;
    bs.slices_[j].ResetView(outs[j], slice_bytes(n));
  }
  WriteSlices(column, size_, n, outs.data(), num_slices());
  *out = std::move(bs);
  return true;
}

ByteSliceColumn ByteSliceColumn::FromParts(
    int width, size_t size, std::vector<AlignedBuffer<uint8_t>> slices) {
  MCSORT_CHECK(width >= 1 && width <= 64);
  MCSORT_CHECK(slices.size() == static_cast<size_t>((width + 7) / 8));
  for (const auto& slice : slices) {
    MCSORT_CHECK(slice.size() >= slice_bytes(size));
  }
  ByteSliceColumn bs;
  bs.width_ = width;
  bs.size_ = size;
  bs.slices_ = std::move(slices);
  return bs;
}

}  // namespace mcsort
