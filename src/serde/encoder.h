#ifndef SEEP_SERDE_ENCODER_H_
#define SEEP_SERDE_ENCODER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace seep::serde {

/// Appends primitive values to a growing byte buffer in a fixed,
/// architecture-independent little-endian format. Checkpoints, tuples and
/// operator state all use this codec, so checkpoint sizes (which drive the
/// paper's Fig. 14 overhead study) reflect real encoded bytes.
class Encoder {
 public:
  Encoder() = default;

  void AppendU8(uint8_t v) { buf_.push_back(v); }

  /// Grows the buffer's capacity by `n` bytes beyond the current size, so a
  /// burst of appends (e.g. a whole checkpoint of known ByteSize) costs one
  /// allocation instead of log(n) reallocation-and-copy cycles.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void AppendFixed32(uint32_t v) { WriteFixed32(Extend(4), v); }

  void AppendFixed64(uint64_t v) { WriteFixed64(Extend(8), v); }

  /// LEB128 variable-length unsigned integer.
  void AppendVarint64(uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(uint8_t(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(uint8_t(v));
  }

  /// ZigZag-mapped signed varint (small magnitudes stay small).
  void AppendVarintSigned64(int64_t v) { AppendVarint64(ZigZag(v)); }

  void AppendDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendFixed64(bits);
  }

  /// Length-prefixed byte string.
  void AppendString(std::string_view s) {
    AppendVarint64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void AppendRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Grows the buffer by exactly `n` bytes and returns a pointer to the new
  /// region, which the caller must fully overwrite (via the Write* helpers
  /// below). Bulk encoders of known size use this to replace per-append
  /// bounds checks with raw pointer stores — one resize, one pass.
  uint8_t* Extend(size_t n) {
    const size_t old = buf_.size();
    buf_.resize(old + n);
    return buf_.data() + old;
  }

  /// Raw-pointer variants of the appends, for writing into Extend() regions
  /// (or any buffer sized by the *Size helpers below). Each writes exactly
  /// the bytes its Append* counterpart would and returns the advanced cursor.
  static uint8_t* WriteU8(uint8_t* p, uint8_t v) {
    *p = v;
    return p + 1;
  }

  static uint8_t* WriteFixed32(uint8_t* p, uint32_t v) {
    const uint8_t staged[4] = {uint8_t(v), uint8_t(v >> 8), uint8_t(v >> 16),
                               uint8_t(v >> 24)};
    std::memcpy(p, staged, sizeof(staged));
    return p + sizeof(staged);
  }

  static uint8_t* WriteFixed64(uint8_t* p, uint64_t v) {
    const uint8_t staged[8] = {uint8_t(v),       uint8_t(v >> 8),
                               uint8_t(v >> 16), uint8_t(v >> 24),
                               uint8_t(v >> 32), uint8_t(v >> 40),
                               uint8_t(v >> 48), uint8_t(v >> 56)};
    std::memcpy(p, staged, sizeof(staged));
    return p + sizeof(staged);
  }

  static uint8_t* WriteVarint64(uint8_t* p, uint64_t v) {
    while (v >= 0x80) {
      *p++ = uint8_t(v) | 0x80;
      v >>= 7;
    }
    *p++ = uint8_t(v);
    return p;
  }

  static uint8_t* WriteVarintSigned64(uint8_t* p, int64_t v) {
    return WriteVarint64(p, ZigZag(v));
  }

  static uint8_t* WriteString(uint8_t* p, std::string_view s) {
    p = WriteVarint64(p, s.size());
    if (!s.empty()) std::memcpy(p, s.data(), s.size());
    return p + s.size();
  }

  static uint64_t ZigZag(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  }

  /// Encoded size of AppendVarint64(v)/WriteVarint64(v), without encoding.
  static size_t VarintSize(uint64_t v) {
    size_t n = 1;
    while (v >= 0x80) {
      ++n;
      v >>= 7;
    }
    return n;
  }

  /// Encoded size of AppendVarintSigned64(v)/WriteVarintSigned64(v).
  static size_t SignedVarintSize(int64_t v) { return VarintSize(ZigZag(v)); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  /// The bytes appended so far, as chars: a scratch encoder's output handed
  /// on without a copy. The view dies with the next append or Clear().
  std::string_view view() const {
    return {reinterpret_cast<const char*>(buf_.data()), buf_.size()};
  }
  std::vector<uint8_t> TakeBuffer() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::vector<uint8_t> buf_;
};

}  // namespace seep::serde

#endif  // SEEP_SERDE_ENCODER_H_
