#ifndef SEEP_SERDE_BLOCK_CODEC_H_
#define SEEP_SERDE_BLOCK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"

namespace seep::serde {

/// Self-contained LZ4-style block compressor for checkpoint frames: byte
/// sequences of [token | literals | 2-byte offset | match extension], greedy
/// hash-table matching, no entropy stage. Checkpoint payloads (sorted
/// key/value runs, repeated words, zero-heavy varints) compress well under
/// pure match coding, and both ends stay dependency-free.
///
/// Block layout: varint64 uncompressed size, then LZ4-style sequences. Each
/// sequence is a token byte whose high nibble is the literal length and low
/// nibble the match length minus 4 (nibble value 15 adds 255-run extension
/// bytes), the literals, then a 2-byte little-endian back-reference offset
/// (1..65535) unless the sequence is the final literals-only tail.
///
/// The stream is worth shipping only when it is smaller than the input; the
/// caller keeps the raw bytes otherwise (a checkpoint frame's head names
/// the codec its body is in).
///
/// The output is a pure function of the input: the matcher (hash, table,
/// greedy choice) is part of the format's contract because checkpoint frame
/// sizes feed the figures, and serde_test pins it against a byte-at-a-time
/// reference.
std::vector<uint8_t> BlockCompress(const uint8_t* data, size_t size);
std::vector<uint8_t> BlockCompress(const std::vector<uint8_t>& data);

/// Most bytes BlockCompress can produce for `size` input bytes.
size_t BlockCompressBound(size_t size);

/// BlockCompress into a caller buffer of at least BlockCompressBound(size)
/// bytes (the checkpoint frame encoder compresses straight into its frame);
/// returns the bytes written. The vector form wraps this one.
size_t BlockCompress(const uint8_t* data, size_t size, uint8_t* out);

/// Decompresses a BlockCompress stream. Fully bounds-checked: a truncated
/// stream, an offset pointing before the output start, a declared size above
/// `max_output`, or output over/underrun all return Corruption — no byte of
/// a corrupted block can drive an allocation or an out-of-bounds copy.
[[nodiscard]]
Result<std::vector<uint8_t>> BlockDecompress(const uint8_t* data, size_t size,
                                             size_t max_output);
[[nodiscard]]
Result<std::vector<uint8_t>> BlockDecompress(const std::vector<uint8_t>& data,
                                             size_t max_output);

}  // namespace seep::serde

#endif  // SEEP_SERDE_BLOCK_CODEC_H_
