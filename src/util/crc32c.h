// CRC32C (Castagnoli) checksums. Used by the WAL record format, SSTable
// block trailers, the FileStore journal and checkpoint, wire frames and
// the shard superblock.
//
// On x86-64 CPUs with SSE4.2, Extend runs the hardware crc32 instruction;
// everywhere else it runs a portable slicing-by-8 table loop. The choice
// is made once, at first use, from the running CPU. Both kernels compute
// the same function, so stored and transmitted checksums do not depend on
// the machine that wrote them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sealdb::crc32c {

// Return the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

static constexpr uint32_t kMaskDelta = 0xa282ead8ul;

// Masking makes a crc stored alongside the data it covers resilient to
// the "crc of data that itself contains crcs" problem.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

// For tests that cross-check the two kernels; the store calls Extend.
namespace internal {
// The portable table kernel, whatever the CPU supports.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);
// True when Extend dispatches to the hardware kernel on this CPU.
bool IsHardwareAccelerated();
}  // namespace internal

}  // namespace sealdb::crc32c
