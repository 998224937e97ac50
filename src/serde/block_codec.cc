#include "serde/block_codec.h"

#include <bit>
#include <cstring>

#include "common/macros.h"

namespace seep::serde {

namespace {

// Positions hashed over 4-byte windows; 1 << 14 slots keeps the table in L1
// while finding the long runs checkpoint payloads are made of.
constexpr size_t kHashBits = 14;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
// The last bytes of a block are always emitted as literals so the match
// extension loop below never reads past the input end.
constexpr size_t kTailLiterals = 12;
// A literal run this short is copied as one fixed-size word (see
// EmitSequence for why both sides of that copy stay in bounds).
constexpr size_t kShortLiterals = 8;
// The longest varint64 (the block's uncompressed-size prefix).
constexpr size_t kMaxVarintBytes = 10;

uint32_t Read32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Read64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Index of the first differing byte of two unequal 8-byte words loaded from
// memory in native order.
size_t FirstDifferingByte(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  }
}

// Length of the common prefix of `a` and `b`, known to be at least `len`
// and cut at `limit`: 8 bytes per step while 8 remain, then byte by byte.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t len,
                   size_t limit) {
  while (len + 8 <= limit) {
    const uint64_t diff = Read64(a + len) ^ Read64(b + len);
    if (diff != 0) return len + FirstDifferingByte(diff);
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

uint32_t Hash32(uint32_t v) {
  // Fibonacci hashing on the 4-byte window.
  return (v * 2654435761u) >> (32 - kHashBits);
}

uint8_t* PutVarint(uint8_t* op, uint64_t v) {
  while (v >= 0x80) {
    *op++ = uint8_t(v) | 0x80;
    v >>= 7;
  }
  *op++ = uint8_t(v);
  return op;
}

// Nibble 15 means "add 255-run extension bytes until a byte < 255".
uint8_t* PutLength(uint8_t* op, size_t len) {
  while (len >= 255) {
    *op++ = 255;
    len -= 255;
  }
  *op++ = uint8_t(len);
  return op;
}

// Writes one sequence at `op` and returns the advanced cursor. A match
// sequence's literal run of at most kShortLiterals bytes is copied as one
// fixed 8-byte word. Its over-read stays inside the input: the literals end
// at a match start, at least kTailLiterals before the input end. Its
// over-write stays inside the block: after the literals come the 2-byte
// offset and the final sequence's token and its literals, of which there
// are always at least kTailLiterals - kMinMatch = 8.
uint8_t* EmitSequence(uint8_t* op, const uint8_t* literals, size_t lit_len,
                      size_t offset, size_t match_len) {
  const size_t lit_nibble = lit_len < 15 ? lit_len : 15;
  const size_t match_extra = match_len == 0 ? 0 : match_len - kMinMatch;
  const size_t match_nibble = match_extra < 15 ? match_extra : 15;
  *op++ = uint8_t((lit_nibble << 4) | match_nibble);
  if (lit_nibble == 15) op = PutLength(op, lit_len - 15);
  if (match_len != 0 && lit_len <= kShortLiterals) {
    std::memcpy(op, literals, kShortLiterals);
  } else {
    std::memcpy(op, literals, lit_len);
  }
  op += lit_len;
  if (match_len == 0) return op;  // final literals-only sequence
  *op++ = uint8_t(offset);
  *op++ = uint8_t(offset >> 8);
  if (match_nibble == 15) op = PutLength(op, match_extra - 15);
  return op;
}

}  // namespace

// A match sequence's token, offset and extension bytes take at most
// match_len - 1 bytes, which pays for its literal run's first extension
// byte; every further extension byte covers 255 literals. So the sequences
// take at most size + size / 255 + 2 bytes (the +2: the final sequence's
// token and first extension byte, which no match pays for), after a size
// varint of at most kMaxVarintBytes.
size_t BlockCompressBound(size_t size) {
  return kMaxVarintBytes + size + size / 255 + 2;
}

size_t BlockCompress(const uint8_t* data, size_t size, uint8_t* out) {
  uint8_t* op = PutVarint(out, size);
  if (size <= kTailLiterals + kMinMatch) {
    if (size > 0) op = EmitSequence(op, data, size, 0, 0);
    return static_cast<size_t>(op - out);
  }
  // table[h] holds position + 1; 0 means empty.
  std::vector<uint32_t> table(kHashSize, 0);
  const size_t match_limit = size - kTailLiterals;
  // Matches stop kTailLiterals - kMinMatch bytes short of the end, so the
  // final literal run is never empty and nothing is read out of bounds.
  const size_t extend_limit = size - (kTailLiterals - kMinMatch);
  size_t anchor = 0;
  size_t i = 0;
  while (i < match_limit) {
    const uint32_t here = Read32(data + i);
    const uint32_t h = Hash32(here);
    const uint32_t slot = table[h];
    table[h] = uint32_t(i + 1);
    // An empty slot reads its candidate at position 0, which is in bounds;
    // the slot == 0 term then rejects it. The three ways to miss are one
    // integer and one branch.
    const size_t candidate = slot - (slot != 0);
    const uint32_t miss = (Read32(data + candidate) ^ here) |
                          uint32_t(slot == 0) |
                          uint32_t(i - candidate > kMaxOffset);
    if (miss != 0) {
      ++i;
      continue;
    }
    const size_t len = MatchLength(data + candidate, data + i, kMinMatch,
                                   extend_limit - i);
    op = EmitSequence(op, data + anchor, i - anchor, i - candidate, len);
    i += len;
    anchor = i;
  }
  op = EmitSequence(op, data + anchor, size - anchor, 0, 0);
  return static_cast<size_t>(op - out);
}

std::vector<uint8_t> BlockCompress(const uint8_t* data, size_t size) {
  std::vector<uint8_t> out(BlockCompressBound(size));
  out.resize(BlockCompress(data, size, out.data()));
  return out;
}

std::vector<uint8_t> BlockCompress(const std::vector<uint8_t>& data) {
  return BlockCompress(data.data(), data.size());
}

[[nodiscard]]
Result<std::vector<uint8_t>> BlockDecompress(const uint8_t* data, size_t size,
                                             size_t max_output) {
  size_t pos = 0;
  // Varint uncompressed size, validated against max_output before any
  // allocation is derived from it.
  uint64_t raw_size = 0;
  for (int shift = 0;; shift += 7) {
    if (pos >= size || shift > 63) {
      return Status::Corruption("block codec: bad size varint");
    }
    const uint8_t b = data[pos++];
    raw_size |= uint64_t(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
  }
  if (raw_size > max_output) {
    return Status::Corruption("block codec: declared size exceeds limit");
  }
  // Sized once; `n` counts the bytes produced so far.
  std::vector<uint8_t> out(raw_size);
  uint8_t* const dst = out.data();
  size_t n = 0;

  const auto read_length = [&](size_t nibble,
                               size_t* len) -> Status {
    *len = nibble;
    if (nibble != 15) return Status::OK();
    while (true) {
      if (pos >= size) return Status::Corruption("block codec: truncated run");
      const uint8_t b = data[pos++];
      *len += b;
      if (b != 255) return Status::OK();
    }
  };

  while (pos < size) {
    const uint8_t token = data[pos++];
    size_t lit_len = 0;
    SEEP_RETURN_IF_ERROR(read_length(token >> 4, &lit_len));
    if (lit_len > size - pos) {
      return Status::Corruption("block codec: literal overrun");
    }
    if (lit_len > raw_size - n) {
      return Status::Corruption("block codec: output overrun");
    }
    if (lit_len != 0) std::memcpy(dst + n, data + pos, lit_len);
    n += lit_len;
    pos += lit_len;
    if (pos == size) break;  // final literals-only sequence
    if (size - pos < 2) {
      return Status::Corruption("block codec: truncated offset");
    }
    const size_t offset = size_t(data[pos]) | (size_t(data[pos + 1]) << 8);
    pos += 2;
    if (offset == 0 || offset > n) {
      return Status::Corruption("block codec: offset out of range");
    }
    size_t match_len = 0;
    SEEP_RETURN_IF_ERROR(read_length(token & 0x0F, &match_len));
    match_len += kMinMatch;
    if (match_len > raw_size - n) {
      return Status::Corruption("block codec: match overrun");
    }
    uint8_t* const to = dst + n;
    const uint8_t* const from = to - offset;
    if (offset >= match_len) {
      std::memcpy(to, from, match_len);
    } else {
      // Overlapping back-reference: replicate the just-written bytes one at
      // a time, like LZ4 runs.
      for (size_t k = 0; k < match_len; ++k) to[k] = from[k];
    }
    n += match_len;
  }
  if (n != raw_size) {
    return Status::Corruption("block codec: size mismatch");
  }
  return out;
}

[[nodiscard]]
Result<std::vector<uint8_t>> BlockDecompress(const std::vector<uint8_t>& data,
                                             size_t max_output) {
  return BlockDecompress(data.data(), data.size(), max_output);
}

}  // namespace seep::serde
