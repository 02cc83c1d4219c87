// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected): the one checksum of
// the system. Wire frames (net/wire.h), snapshot sections (io/snapshot.h)
// and spill run blocks (sort/external/run_file.h) all use it.
//
// Builds with SSE4.2 (implied by the default -mavx2) run the hardware crc32
// instruction eight bytes per step; other builds run a byte-at-a-time table.
// Both compute the same values, so frames and files written by one build
// verify in the other. Known-answer: Crc32c("123456789") == 0xE3069283.
#ifndef MCSORT_COMMON_CRC32C_H_
#define MCSORT_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace mcsort {

// `seed` chains: Crc32c(b, nb, Crc32c(a, na)) == Crc32c(a followed by b).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

}  // namespace mcsort

#endif  // MCSORT_COMMON_CRC32C_H_
