#include "mcsort/common/crc32c.h"

#include <cstring>

#if defined(__SSE4_2__)
#include <nmmintrin.h>
#endif

namespace mcsort {

#if defined(__SSE4_2__)

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned loads are cheap on x86
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t tail = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) tail = _mm_crc32_u8(tail, *p);
  return ~tail;
}

#else

namespace {

// Reflected CRC32C table, built once (thread-safe magic static).
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected 0x1EDC6F41
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

}  // namespace

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  static const Crc32cTable table;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

#endif

}  // namespace mcsort
