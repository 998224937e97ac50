#include "serde/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace seep::serde {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected CRC-32C polynomial

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same reflected CRC-32C: bytes up
// to an 8-byte boundary, then eight bytes per instruction, then the tail.
// `crc` is the raw (already inverted) register value.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t n,
                                                       uint32_t crc) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

bool HasSse42() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}
#endif

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
#if defined(__x86_64__)
  if (HasSse42()) {
    return ~Crc32cSse42(static_cast<const uint8_t*>(data), n, ~init);
  }
#endif
  return Crc32cPortable(data, n, init);
}

}  // namespace seep::serde
