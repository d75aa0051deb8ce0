#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sealdb::crc32c {

namespace {

// Build the 8 lookup tables for slicing-by-8 at first use.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reversed CRC32C polynomial
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t crc = i;
      for (int j = 0; j < 8; j++) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; i++) {
      for (int k = 1; k < 8; k++) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Tables& tables() {
  static const Tables kTables;
  return kTables;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes exactly this polynomial with the
// same bit order, so it is a drop-in for the table loop. The target
// attribute confines the instruction to this function: the rest of the
// binary stays runnable on CPUs without SSE4.2.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  const char* p = data;
  uint64_t crc = init_crc ^ 0xffffffffu;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned load
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n-- > 0) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p++));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // safe even if first called from a constructor
  if (__builtin_cpu_supports("sse4.2")) return ExtendSse42;
#endif
  return internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Tables& tab = tables();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;

  // Process 8 bytes at a time (slicing-by-8).
  while (n >= 8) {
    uint32_t lo = static_cast<uint32_t>(p[0]) |
                  (static_cast<uint32_t>(p[1]) << 8) |
                  (static_cast<uint32_t>(p[2]) << 16) |
                  (static_cast<uint32_t>(p[3]) << 24);
    crc ^= lo;
    crc = tab.t[7][crc & 0xff] ^ tab.t[6][(crc >> 8) & 0xff] ^
          tab.t[5][(crc >> 16) & 0xff] ^ tab.t[4][crc >> 24] ^
          tab.t[3][p[4]] ^ tab.t[2][p[5]] ^ tab.t[1][p[6]] ^ tab.t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

bool IsHardwareAccelerated() {
  return ChooseExtend() != ExtendPortable;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn kExtend = ChooseExtend();
  return kExtend(init_crc, data, n);
}

}  // namespace sealdb::crc32c
