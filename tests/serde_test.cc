// Unit and property tests for the binary serialisation layer: encoder and
// decoder roundtrips, varint edge cases, CRC32C vectors, frame integrity,
// and the block codec's output pinned byte for byte against a reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "serde/block_codec.h"
#include "serde/crc32c.h"
#include "serde/decoder.h"
#include "serde/encoder.h"
#include "serde/frame.h"

namespace seep::serde {
namespace {

TEST(EncoderDecoderTest, FixedWidthRoundtrip) {
  Encoder enc;
  enc.AppendU8(0xAB);
  enc.AppendFixed32(0xDEADBEEF);
  enc.AppendFixed64(0x0123456789ABCDEFull);
  enc.AppendDouble(3.14159);

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.ReadU8().value(), 0xAB);
  EXPECT_EQ(dec.ReadFixed32().value(), 0xDEADBEEF);
  EXPECT_EQ(dec.ReadFixed64().value(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(dec.ReadDouble().value(), 3.14159);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(EncoderDecoderTest, VarintBoundaries) {
  const uint64_t cases[] = {0,       1,        127,        128,
                            16383,   16384,    (1ull << 32) - 1,
                            1ull << 32, UINT64_MAX};
  Encoder enc;
  for (uint64_t v : cases) enc.AppendVarint64(v);
  Decoder dec(enc.buffer());
  for (uint64_t v : cases) EXPECT_EQ(dec.ReadVarint64().value(), v);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(EncoderDecoderTest, SignedVarintBoundaries) {
  const int64_t cases[] = {0,  1,  -1, 63, -64, 64, -65,
                           INT64_MAX, INT64_MIN, -123456789};
  Encoder enc;
  for (int64_t v : cases) enc.AppendVarintSigned64(v);
  Decoder dec(enc.buffer());
  for (int64_t v : cases) EXPECT_EQ(dec.ReadVarintSigned64().value(), v);
}

TEST(EncoderDecoderTest, SmallMagnitudesEncodeSmall) {
  Encoder enc;
  enc.AppendVarintSigned64(-1);
  EXPECT_EQ(enc.size(), 1u);  // zigzag: -1 -> 1
}

TEST(EncoderDecoderTest, StringRoundtrip) {
  Encoder enc;
  enc.AppendString("");
  enc.AppendString("hello");
  enc.AppendString(std::string(1000, 'x'));
  std::string with_nul("a\0b", 3);
  enc.AppendString(with_nul);

  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.ReadString().value(), "");
  EXPECT_EQ(dec.ReadString().value(), "hello");
  EXPECT_EQ(dec.ReadString().value(), std::string(1000, 'x'));
  EXPECT_EQ(dec.ReadString().value(), with_nul);
}

TEST(DecoderTest, TruncatedInputsReportCorruption) {
  Encoder enc;
  enc.AppendFixed64(42);
  // Chop one byte off: the read must fail cleanly.
  std::vector<uint8_t> chopped(enc.buffer().begin(), enc.buffer().end() - 1);
  Decoder dec(chopped);
  auto r = dec.ReadFixed64();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST(DecoderTest, TruncatedStringBody) {
  Encoder enc;
  enc.AppendVarint64(100);  // claims 100 bytes follow
  enc.AppendRaw("short", 5);
  Decoder dec(enc.buffer());
  EXPECT_FALSE(dec.ReadString().ok());
}

TEST(DecoderTest, StringLengthThatWrapsThePositionIsCorruption) {
  // A declared length near 2^64 must not wrap `position + length` past the
  // bounds check (and then ask std::string for exabytes).
  for (uint64_t len : {UINT64_MAX, UINT64_MAX - 2, uint64_t{1} << 63}) {
    Encoder enc;
    enc.AppendVarint64(len);
    enc.AppendRaw("abc", 3);
    Decoder dec(enc.buffer());
    auto r = dec.ReadString();
    ASSERT_FALSE(r.ok()) << len;
    EXPECT_TRUE(r.status().IsCorruption());
    Decoder again(enc.buffer());
    std::string out;
    EXPECT_FALSE(again.GetString(&out));
  }
}

TEST(DecoderTest, StatusFreeReadersRoundTripAndFailAtTheEnd) {
  Encoder enc;
  enc.AppendU8(7);
  enc.AppendFixed32(0xCAFEF00D);
  enc.AppendFixed64(0x1122334455667788ull);
  enc.AppendVarint64(300);
  enc.AppendVarintSigned64(-65);
  enc.AppendString("seep");
  Decoder dec(enc.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0, var = 0;
  int64_t svar = 0;
  std::string text;
  ASSERT_TRUE(dec.GetU8(&u8) && dec.GetFixed32(&u32) &&
              dec.GetFixed64(&u64) && dec.GetVarint64(&var) &&
              dec.GetVarintSigned64(&svar) && dec.GetString(&text));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xCAFEF00Du);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(var, 300u);
  EXPECT_EQ(svar, -65);
  EXPECT_EQ(text, "seep");
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_FALSE(dec.GetU8(&u8));
  EXPECT_FALSE(dec.GetFixed32(&u32));
  EXPECT_FALSE(dec.GetFixed64(&u64));
  EXPECT_FALSE(dec.GetVarint64(&var));
}

TEST(EncoderTest, VarintSizesMatchTheEncoding) {
  for (int bits = 0; bits <= 64; ++bits) {
    for (uint64_t v : {bits == 0 ? 0 : (uint64_t{1} << (bits - 1)),
                       bits == 64 ? UINT64_MAX : (uint64_t{1} << bits) - 1}) {
      Encoder enc;
      enc.AppendVarint64(v);
      EXPECT_EQ(Encoder::VarintSize(v), enc.size()) << v;
      const int64_t s = static_cast<int64_t>(v);
      Encoder senc;
      senc.AppendVarintSigned64(s);
      EXPECT_EQ(Encoder::SignedVarintSize(s), senc.size()) << s;
    }
  }
}

TEST(DecoderTest, OverlongVarintRejected) {
  std::vector<uint8_t> bad(11, 0x80);  // never terminates within 64 bits
  Decoder dec(bad);
  auto r = dec.ReadVarint64();
  ASSERT_FALSE(r.ok());
}

// Property sweep: random value sequences roundtrip exactly.
class SerdeRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeRoundtripTest, RandomSequenceRoundtrips) {
  Rng rng(GetParam());
  Encoder enc;
  std::vector<int64_t> signed_values;
  std::vector<uint64_t> unsigned_values;
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    const int64_t sv = static_cast<int64_t>(rng.Next()) >>
                       (rng.NextBounded(63));
    const uint64_t uv = rng.Next() >> rng.NextBounded(63);
    std::string s(rng.NextBounded(50), 'a' + char(rng.NextBounded(26)));
    signed_values.push_back(sv);
    unsigned_values.push_back(uv);
    strings.push_back(s);
    enc.AppendVarintSigned64(sv);
    enc.AppendVarint64(uv);
    enc.AppendString(s);
  }
  Decoder dec(enc.buffer());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dec.ReadVarintSigned64().value(), signed_values[i]);
    EXPECT_EQ(dec.ReadVarint64().value(), unsigned_values[i]);
    EXPECT_EQ(dec.ReadString().value(), strings[i]);
  }
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRoundtripTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 test vector: 32 bytes of zeros.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  // "123456789" -> 0xE3069283 (standard check value).
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const size_t n = strlen(data);
  const uint32_t oneshot = Crc32c(data, n);
  const uint32_t first = Crc32c(data, 10);
  const uint32_t incremental = Crc32c(data + 10, n - 10, first);
  EXPECT_EQ(oneshot, incremental);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(100, 0x5A);
  const uint32_t good = Crc32c(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(good, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndAlignment) {
  // Crc32c takes the SSE4.2 path where the CPU has it; the table loop is
  // the reference. Cover the byte-wise head and tail around the 8-byte
  // main loop: every length 0..1024 at every offset within a word.
  Rng rng(7);
  std::vector<uint8_t> data(1024 + 8);
  for (uint8_t& b : data) b = static_cast<uint8_t>(rng.Next());
  for (uint32_t init : {0u, 0xDEADBEEFu}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t n = 0; n <= 1024; ++n) {
        const uint8_t* p = data.data() + offset;
        ASSERT_EQ(Crc32c(p, n, init), Crc32cPortable(p, n, init))
            << "offset " << offset << " length " << n << " init " << init;
      }
    }
  }
}

// -------------------------------------------------------------------- Frame

TEST(FrameTest, Roundtrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  auto frame = FramePayload(payload);
  auto back = UnframePayload(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), payload);
}

TEST(FrameTest, EmptyPayload) {
  auto frame = FramePayload({});
  auto back = UnframePayload(frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(FrameTest, CorruptedPayloadRejected) {
  auto frame = FramePayload({10, 20, 30, 40});
  frame.back() ^= 0xFF;
  auto back = UnframePayload(frame);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(FrameTest, LengthMismatchRejected) {
  auto frame = FramePayload({10, 20, 30, 40});
  frame.pop_back();
  EXPECT_FALSE(UnframePayload(frame).ok());
}

TEST(FrameTest, TruncationAtEveryBoundaryRejected) {
  const auto frame = FramePayload({1, 2, 3, 4, 5, 6, 7});
  // Every strict prefix of the frame — mid-length, mid-crc, mid-payload —
  // must be rejected, never crash or mis-parse.
  for (size_t len = 0; len < frame.size(); ++len) {
    const std::vector<uint8_t> cut(frame.begin(), frame.begin() + len);
    auto back = UnframePayload(cut);
    ASSERT_FALSE(back.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_TRUE(back.status().IsCorruption());
  }
}

TEST(FrameTest, OversizedLengthRejectedBeforeAllocation) {
  auto frame = FramePayload({1, 2, 3});
  // Corrupt the length prefix to claim an absurd payload (high bit set in
  // the u64): the parse must fail on the declared length alone — if it
  // tried to allocate or read that many bytes, this test would OOM/crash.
  frame[7] = 0xFF;
  auto back = UnframePayload(frame);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(FrameTest, ConfigurableMaxPayloadEnforced) {
  const std::vector<uint8_t> payload(1024, 0x5A);
  const auto frame = FramePayload(payload);
  EXPECT_TRUE(UnframePayload(frame, /*max_payload=*/1024).ok());
  auto back = UnframePayload(frame, /*max_payload=*/1023);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(FrameTest, EveryBitFlipCaught) {
  const auto frame = FramePayload({0xDE, 0xAD, 0xBE, 0xEF});
  // Flip each bit of the frame in turn; every corrupted frame must be
  // rejected (length flips fail the size checks, payload flips fail the
  // crc32c 100% at Hamming distance 1, crc flips fail the compare).
  for (size_t bit = 0; bit < frame.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = frame;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    EXPECT_FALSE(UnframePayload(damaged).ok())
        << "bit " << bit << " flip went undetected";
  }
}

TEST(FrameTest, ReadFrameHeaderTruncatedAndOversized) {
  const auto frame = FramePayload({9, 9, 9});
  auto header =
      ReadFrameHeader(frame.data(), frame.size(), kDefaultMaxFramePayload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().payload_len, 3u);
  EXPECT_FALSE(ReadFrameHeader(frame.data(), kFrameHeaderBytes - 1,
                               kDefaultMaxFramePayload)
                   .ok());
  EXPECT_FALSE(ReadFrameHeader(frame.data(), frame.size(), 2).ok());
}

// ------------------------------------------------------------ block codec

// The byte-at-a-time compressor BlockCompress replaced, kept as the
// reference its output must equal byte for byte: checkpoint frame sizes
// (and so fig14's shipped bytes and the store's appended bytes) are a
// function of these exact bytes.
std::vector<uint8_t> ReferenceCompress(const std::vector<uint8_t>& input) {
  constexpr size_t kHashBits = 14;
  constexpr size_t kMinMatch = 4;
  constexpr size_t kMaxOffset = 65535;
  constexpr size_t kTailLiterals = 12;
  const uint8_t* data = input.data();
  const size_t size = input.size();
  const auto read32 = [](const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  std::vector<uint8_t> out;
  const auto put_length = [&out](size_t len) {
    while (len >= 255) {
      out.push_back(255);
      len -= 255;
    }
    out.push_back(uint8_t(len));
  };
  const auto emit = [&](const uint8_t* literals, size_t lit_len,
                        size_t offset, size_t match_len) {
    const size_t lit_nibble = lit_len < 15 ? lit_len : 15;
    const size_t match_extra = match_len == 0 ? 0 : match_len - kMinMatch;
    const size_t match_nibble = match_extra < 15 ? match_extra : 15;
    out.push_back(uint8_t((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) put_length(lit_len - 15);
    out.insert(out.end(), literals, literals + lit_len);
    if (match_len == 0) return;
    out.push_back(uint8_t(offset));
    out.push_back(uint8_t(offset >> 8));
    if (match_nibble == 15) put_length(match_extra - 15);
  };
  for (uint64_t v = size; ; v >>= 7) {
    if (v < 0x80) {
      out.push_back(uint8_t(v));
      break;
    }
    out.push_back(uint8_t(v) | 0x80);
  }
  if (size <= kTailLiterals + kMinMatch) {
    if (size > 0) emit(data, size, 0, 0);
    return out;
  }
  std::vector<uint32_t> table(size_t{1} << kHashBits, 0);
  const size_t match_limit = size - kTailLiterals;
  size_t anchor = 0;
  size_t i = 0;
  while (i < match_limit) {
    const uint32_t h = (read32(data + i) * 2654435761u) >> (32 - kHashBits);
    const size_t candidate = table[h] == 0 ? SIZE_MAX : table[h] - 1;
    table[h] = uint32_t(i + 1);
    if (candidate == SIZE_MAX || i - candidate > kMaxOffset ||
        read32(data + candidate) != read32(data + i)) {
      ++i;
      continue;
    }
    size_t len = kMinMatch;
    const size_t extend_limit = size - (kTailLiterals - kMinMatch);
    while (i + len < extend_limit && data[candidate + len] == data[i + len]) {
      ++len;
    }
    emit(data + anchor, i - anchor, i - candidate, len);
    i += len;
    anchor = i;
  }
  emit(data + anchor, size - anchor, 0, 0);
  return out;
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng->Next());
  return out;
}

// Compresses `input`, requires the reference's exact bytes and the bound,
// and round-trips it.
void ExpectPinned(const std::vector<uint8_t>& input, const std::string& what) {
  const std::vector<uint8_t> packed = BlockCompress(input);
  ASSERT_EQ(packed, ReferenceCompress(input)) << what;
  EXPECT_LE(packed.size(), BlockCompressBound(input.size())) << what;
  auto back = BlockDecompress(packed, input.size());
  ASSERT_TRUE(back.ok()) << what;
  EXPECT_EQ(back.value(), input) << what;
}

TEST(BlockCodecPinTest, SizesAroundTheLiteralsOnlyCutoff) {
  Rng rng(11);
  for (size_t n = 0; n <= 40; ++n) {
    ExpectPinned(RandomBytes(&rng, n), "random " + std::to_string(n));
    ExpectPinned(std::vector<uint8_t>(n, 0x61), "equal " + std::to_string(n));
    std::vector<uint8_t> periodic(n);
    for (size_t i = 0; i < n; ++i) periodic[i] = uint8_t("abcde"[i % 5]);
    ExpectPinned(periodic, "periodic " + std::to_string(n));
  }
}

TEST(BlockCodecPinTest, BackReferencesAtTheOffsetLimit) {
  // A random 64-byte block, zeros, then the block again exactly `offset`
  // bytes after the first copy. The zeros compress to offset-1 matches,
  // whose positions never enter the hash table, so the first copy's
  // positions are still there when the second copy is probed.
  std::vector<size_t> packed_sizes;
  for (size_t offset : {size_t{65534}, size_t{65535}, size_t{65536}}) {
    Rng rng(3);
    std::vector<uint8_t> input = RandomBytes(&rng, 50);
    const std::vector<uint8_t> block = RandomBytes(&rng, 64);
    input.insert(input.end(), block.begin(), block.end());
    input.resize(50 + offset, 0);
    input.insert(input.end(), block.begin(), block.end());
    const std::vector<uint8_t> tail = RandomBytes(&rng, 40);
    input.insert(input.end(), tail.begin(), tail.end());
    ExpectPinned(input, "offset " + std::to_string(offset));
    packed_sizes.push_back(BlockCompress(input).size());
  }
  // The copy is a match at 65534 and 65535, and literals at 65536.
  EXPECT_LT(packed_sizes[0] + 40, packed_sizes[2]);
  EXPECT_LT(packed_sizes[1] + 40, packed_sizes[2]);
}

TEST(BlockCodecPinTest, LiteralAndMatchLengthsAcrossTheNibbleAndRunLimits) {
  // Every pair of a literal run and a match length around 15 (the
  // nibble), 19 (a match's nibble: 4 + 15), 270 and 274 (each one's first
  // 255-run extension byte) and the second extension byte. The input is a
  // random source, the source again (one match), `lit` fresh bytes (a
  // literal run of exactly that length) and the source's first `match`
  // bytes (a match of that length against the second copy).
  std::vector<size_t> lengths;
  for (size_t base : {13, 268, 523}) {
    for (size_t d = 0; d <= 8; ++d) lengths.push_back(base + d);
  }
  Rng rng(5);
  for (size_t lit : lengths) {
    for (size_t match : lengths) {
      const std::vector<uint8_t> source = RandomBytes(&rng, 540);
      std::vector<uint8_t> input = source;
      input.insert(input.end(), source.begin(), source.end());
      const std::vector<uint8_t> fresh = RandomBytes(&rng, lit);
      input.insert(input.end(), fresh.begin(), fresh.end());
      input.insert(input.end(), source.begin(), source.begin() + match);
      const std::vector<uint8_t> tail = RandomBytes(&rng, 20);
      input.insert(input.end(), tail.begin(), tail.end());
      ExpectPinned(input, "literals " + std::to_string(lit) + " match " +
                              std::to_string(match));
    }
  }
}

TEST(BlockCodecPinTest, IncompressibleEqualAndWordCountPayloads) {
  Rng rng(17);
  ExpectPinned(RandomBytes(&rng, 4096), "random 4096");
  ExpectPinned(RandomBytes(&rng, 100000), "random 100000");
  for (size_t n : {17, 100, 4096, 100000}) {
    ExpectPinned(std::vector<uint8_t>(n, 0), "zeros " + std::to_string(n));
  }
  // Word-count-shaped: sorted 8-byte keys, a length byte and a count
  // string per entry, as ProcessingState encodes its window counts.
  Encoder enc;
  const char* words[] = {"the", "of", "stream", "state", "checkpoint",
                         "operator", "a", "backup"};
  uint64_t key = 0x100;
  for (int i = 0; i < 5000; ++i) {
    key += 1 + rng.NextBounded(1u << 20);
    enc.AppendFixed64(key);
    enc.AppendString(std::string(words[rng.NextBounded(8)]) + ":" +
                     std::to_string(rng.NextBounded(1000)));
  }
  ExpectPinned(enc.buffer(), "word count");
}


std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& input) {
  const std::vector<uint8_t> packed = BlockCompress(input);
  auto back = BlockDecompress(packed, input.size());
  EXPECT_TRUE(back.ok());
  return back.ok() ? back.value() : std::vector<uint8_t>{};
}

TEST(BlockCodecTest, EmptyAndTinyInputsRoundTrip) {
  EXPECT_EQ(RoundTrip({}), std::vector<uint8_t>{});
  EXPECT_EQ(RoundTrip({42}), std::vector<uint8_t>{42});
  const std::vector<uint8_t> few = {1, 2, 3, 4, 5};
  EXPECT_EQ(RoundTrip(few), few);
}

TEST(BlockCodecTest, RepetitiveInputCompressesAndRoundTrips) {
  // Checkpoint-shaped data: repeated key/value runs.
  std::vector<uint8_t> input;
  for (int i = 0; i < 500; ++i) {
    const char* word = (i % 3 == 0) ? "window-count" : "word-count-value";
    input.insert(input.end(), word, word + strlen(word));
    input.push_back(static_cast<uint8_t>(i));
  }
  const std::vector<uint8_t> packed = BlockCompress(input);
  EXPECT_LT(packed.size(), input.size() / 2);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(BlockCodecTest, LongSelfOverlappingRunRoundTrips) {
  // A run of one byte forces matches whose source overlaps the output being
  // written — the copy must proceed byte-by-byte semantically.
  std::vector<uint8_t> input(100000, 0xAB);
  const std::vector<uint8_t> packed = BlockCompress(input);
  EXPECT_LT(packed.size(), input.size() / 50);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(BlockCodecTest, IncompressibleInputRoundTripsAndCallerKeepsRaw) {
  Rng rng(99);
  std::vector<uint8_t> input(4096);
  for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
  const std::vector<uint8_t> packed = BlockCompress(input);
  // Random bytes do not compress; the pipeline ships the raw payload when
  // the stream is not smaller, so only correctness matters here.
  EXPECT_EQ(RoundTrip(input), input);
  EXPECT_GE(packed.size(), input.size() * 9 / 10);
}

TEST(BlockCodecTest, DeclaredSizeAboveMaxOutputRejected) {
  const std::vector<uint8_t> input(1024, 7);
  const std::vector<uint8_t> packed = BlockCompress(input);
  EXPECT_TRUE(BlockDecompress(packed, 1024).ok());
  auto back = BlockDecompress(packed, 1023);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsCorruption());
}

TEST(BlockCodecTest, TruncationAtEveryBoundarySafe) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 64; ++i) {
    input.insert(input.end(), {1, 2, 3, 4, static_cast<uint8_t>(i)});
  }
  const std::vector<uint8_t> packed = BlockCompress(input);
  for (size_t len = 0; len < packed.size(); ++len) {
    const std::vector<uint8_t> cut(packed.begin(), packed.begin() + len);
    // A strict prefix must never produce the declared output; it either
    // fails cleanly or (for a cut inside the final literal run) never
    // reaches full size. It must not crash or read out of bounds.
    auto back = BlockDecompress(cut, input.size());
    if (back.ok()) {
      EXPECT_LT(back.value().size(), input.size()) << "cut at " << len;
    }
  }
}

TEST(BlockCodecTest, CorruptedStreamsNeverCrash) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 200; ++i) {
    input.insert(input.end(), {9, 8, 7, static_cast<uint8_t>(i % 11)});
  }
  const std::vector<uint8_t> packed = BlockCompress(input);
  for (size_t bit = 0; bit < packed.size() * 8; ++bit) {
    std::vector<uint8_t> damaged = packed;
    damaged[bit / 8] ^= uint8_t(1u << (bit % 8));
    // Any outcome but a crash/overrun is acceptable: the pipeline's crc32c
    // frame catches corruption; the codec only has to stay memory-safe.
    auto back = BlockDecompress(damaged, input.size());
    (void)back;
  }
}

TEST(BlockCodecTest, RandomStructuredInputsRoundTripExactly) {
  Rng rng(7);
  for (int round = 0; round < 30; ++round) {
    std::vector<uint8_t> input;
    const size_t pieces = 1 + rng.Next() % 40;
    for (size_t p = 0; p < pieces; ++p) {
      if (rng.Next() % 2 == 0) {
        // A run: compressible.
        input.insert(input.end(), rng.Next() % 300,
                     static_cast<uint8_t>(rng.Next()));
      } else {
        // Random bytes: literals.
        const size_t n = rng.Next() % 100;
        for (size_t i = 0; i < n; ++i) {
          input.push_back(static_cast<uint8_t>(rng.Next()));
        }
      }
    }
    EXPECT_EQ(RoundTrip(input), input) << "round " << round;
  }
}

}  // namespace
}  // namespace seep::serde
