#include "mcsort/storage/bitweaving.h"

#include <algorithm>

#include "mcsort/common/bits.h"

namespace mcsort {

BitWeavingColumn BitWeavingColumn::Build(const EncodedColumn& column) {
  BitWeavingColumn bw;
  bw.width_ = column.width();
  bw.size_ = column.size();
  bw.words_per_plane_ = RoundUp(column.size(), 64) / 64;
  bw.planes_.resize(static_cast<size_t>(bw.width_));
  for (auto& plane : bw.planes_) plane.Reset(bw.words_per_plane_);
  const size_t n = column.size();
  VisitCodes(column, [&](const auto* codes) {
    // One 64-row group at a time: each plane's word is assembled in a
    // register and stored once; rows past the end weave in as zeros.
    Code group[64];
    for (size_t g = 0; g < bw.words_per_plane_; ++g) {
      const size_t begin = g * 64;
      const size_t count = std::min<size_t>(64, n - begin);
      for (size_t r = 0; r < count; ++r) group[r] = codes[begin + r];
      std::fill(group + count, group + 64, Code{0});
      for (int j = 0; j < bw.width_; ++j) {
        const int bit = bw.width_ - 1 - j;
        uint64_t word = 0;
        for (int r = 0; r < 64; ++r) word |= ((group[r] >> bit) & 1) << r;
        bw.planes_[static_cast<size_t>(j)][g] = word;
      }
    }
  });
  return bw;
}

}  // namespace mcsort
