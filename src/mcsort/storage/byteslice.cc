#include "mcsort/storage/byteslice.h"

#include <algorithm>

namespace mcsort {

ByteSliceColumn ByteSliceColumn::Build(const EncodedColumn& column) {
  ByteSliceColumn bs;
  bs.width_ = column.width();
  bs.size_ = column.size();
  const size_t n = column.size();
  const int num_slices = (column.width() + 7) / 8;
  const int padding = 8 * num_slices - column.width();
  // Pad the slice length to a SIMD block so scans can run full blocks.
  const size_t padded_n = slice_bytes(n);
  bs.slices_.resize(static_cast<size_t>(num_slices));
  VisitCodes(column, [&](const auto* codes) {
    for (int j = 0; j < num_slices; ++j) {
      AlignedBuffer<uint8_t>& slice = bs.slices_[static_cast<size_t>(j)];
      slice.Reset(padded_n);
      uint8_t* out = slice.data();
      // Slice j is byte j (MSB first) of code << padding; only the last
      // slice shifts left.
      const int right = 8 * (num_slices - 1 - j) - padding;
      if (right >= 0) {
        for (size_t i = 0; i < n; ++i) {
          out[i] = static_cast<uint8_t>(codes[i] >> right);
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          out[i] = static_cast<uint8_t>(codes[i] << -right);
        }
      }
      std::fill(out + n, out + padded_n, uint8_t{0});
    }
  });
  return bs;
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
