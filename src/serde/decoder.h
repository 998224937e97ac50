#ifndef SEEP_SERDE_DECODER_H_
#define SEEP_SERDE_DECODER_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace seep::serde {

/// Reads values written by Encoder. All reads are bounds-checked and report
/// truncation/corruption rather than crashing, since checkpoints can arrive
/// damaged from a failing VM.
///
/// Each primitive has one implementation, a Status-free Get* that returns
/// false on truncated or malformed input (the position is then
/// unspecified, so the caller abandons the decode). Per-element decoders
/// (tuples, state entries) call these directly and turn a false into one
/// Corruption for the whole value; the Read* forms wrap them for callers
/// that want a Result per field.
class Decoder {
 public:
  explicit Decoder(std::string_view data)
      : data_(reinterpret_cast<const uint8_t*>(data.data())),
        size_(data.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  [[nodiscard]] bool GetU8(uint8_t* out) {
    if (pos_ == size_) return false;
    *out = data_[pos_++];
    return true;
  }

  [[nodiscard]] bool GetFixed32(uint32_t* out) {
    if (size_ - pos_ < 4) return false;
    const uint8_t* p = data_ + pos_;
    *out = uint32_t(p[0]) | (uint32_t(p[1]) << 8) | (uint32_t(p[2]) << 16) |
           (uint32_t(p[3]) << 24);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool GetFixed64(uint64_t* out) {
    if (size_ - pos_ < 8) return false;
    const uint8_t* p = data_ + pos_;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
    *out = v;
    pos_ += 8;
    return true;
  }

  /// LEB128; fails on truncation or on more than ten bytes (64 bits).
  [[nodiscard]] bool GetVarint64(uint64_t* out) {
    size_t pos = pos_;
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos == size_) return false;
      const uint8_t byte = data_[pos++];
      v |= uint64_t(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        pos_ = pos;
        *out = v;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool GetVarintSigned64(int64_t* out) {
    uint64_t u = 0;
    if (!GetVarint64(&u)) return false;
    *out = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return true;
  }

  /// Length-prefixed string, as a view of the input. The length is checked
  /// against the bytes left before the view is made.
  [[nodiscard]] bool GetStringView(std::string_view* out) {
    uint64_t len = 0;
    if (!GetVarint64(&len) || len > size_ - pos_) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                            static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return true;
  }

  /// Length-prefixed string, assigned into `out` (reusing its capacity).
  [[nodiscard]] bool GetString(std::string* out) {
    std::string_view view;
    if (!GetStringView(&view)) return false;
    out->assign(view);
    return true;
  }

  [[nodiscard]] Result<uint8_t> ReadU8() {
    return Wrap(&Decoder::GetU8, "u8");
  }

  [[nodiscard]] Result<uint32_t> ReadFixed32() {
    return Wrap(&Decoder::GetFixed32, "fixed32");
  }

  [[nodiscard]] Result<uint64_t> ReadFixed64() {
    return Wrap(&Decoder::GetFixed64, "fixed64");
  }

  [[nodiscard]] Result<uint64_t> ReadVarint64() {
    return Wrap(&Decoder::GetVarint64, "varint");
  }

  [[nodiscard]] Result<int64_t> ReadVarintSigned64() {
    return Wrap(&Decoder::GetVarintSigned64, "signed varint");
  }

  [[nodiscard]] Result<double> ReadDouble() {
    auto bits = ReadFixed64();
    if (!bits.ok()) return bits.status();
    double v;
    const uint64_t b = bits.value();
    std::memcpy(&v, &b, sizeof(v));
    return v;
  }

  [[nodiscard]] Result<std::string> ReadString() {
    return Wrap(&Decoder::GetString, "string");
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  /// The bytes read since `mark`, an earlier position(), as a view of the
  /// input: a decoder that has checked a run of values keeps their bytes
  /// as they arrived instead of re-encoding them.
  std::span<const uint8_t> BytesSince(size_t mark) const {
    return {data_ + mark, pos_ - mark};
  }

 private:
  template <typename T>
  [[nodiscard]] Result<T> Wrap(bool (Decoder::*get)(T*), const char* what) {
    T v{};
    if (!(this->*get)(&v)) {
      return Status::Corruption(std::string("truncated or malformed ") +
                                what);
    }
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace seep::serde

#endif  // SEEP_SERDE_DECODER_H_
