#ifndef SEEP_SERDE_CRC32C_H_
#define SEEP_SERDE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace seep::serde {

/// CRC-32C (Castagnoli) over `n` bytes, starting from `init` (pass the
/// previous value to extend a running checksum). Used to frame checkpoints
/// and wire messages and to detect corruption. On x86-64 CPUs with SSE4.2
/// it runs on the `crc32` instruction; elsewhere it is Crc32cPortable.
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

/// The byte-at-a-time table implementation: Crc32c's fallback, and the
/// reference its hardware path is tested against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t init = 0);

}  // namespace seep::serde

#endif  // SEEP_SERDE_CRC32C_H_
