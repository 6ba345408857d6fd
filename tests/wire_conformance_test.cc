// Wire-format conformance: the socket transport must emit exactly the bytes
// docs/WIRE_FORMAT.md specifies — the same framing the cost model charges
// (kWireFrameBytes / kWireChunkHeaderBytes) — and
// every codec's payload must decode bit-identically after the trip through
// EncodeMessageFrame/DecodeWireFrame.
//
// The committed golden fixture (tests/golden/wire_frames.hex) pins the exact
// byte stream: any header-layout, endianness, or codec-framing change breaks
// this test loudly instead of silently desynchronizing mixed-version
// clusters. Regenerate deliberately with POSEIDON_REGEN_GOLDEN=1 (the test
// still fails on a mismatch in the same run, so a regen is always visible).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/tensor/onebit.h"
#include "src/tensor/sufficient_factor.h"
#include "src/transport/codec.h"
#include "src/transport/message.h"
#include "src/transport/wire_format.h"

namespace poseidon {
namespace {

std::string GoldenPath() {
  const char* dir = std::getenv("POSEIDON_GOLDEN_DIR");
  return std::string(dir != nullptr ? dir : "tests/golden") + "/wire_frames.hex";
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  std::string name, hex;
  while (in >> name >> hex) {
    golden[name] = hex;
  }
  return golden;
}

// ------------------------------------------------- deterministic fixtures --

// Raw-float gradient push: two chunks at distinct layer offsets, sharing one
// slab (the zero-copy shape a coalesced PS push produces).
Message RawPush() {
  Message m;
  m.type = MessageType::kGradPush;
  m.codec = WireCodec::kRawFloat;
  m.from = Address{0, kSyncerPortBase + 3};
  m.to = Address{2, kServerPort + 1};
  m.layer = 3;
  m.worker = 0;
  m.iter = 7;
  m.seq = 5;
  static Payload slab = [] {
    Payload p = Payload::Allocate(8);
    for (int64_t i = 0; i < 8; ++i) {
      p.data()[i] = static_cast<float>(i) * 0.25f - 1.0f;
    }
    return p;
  }();
  m.chunks.push_back(WireChunk{0, slab.View(0, 4)});
  m.chunks.push_back(WireChunk{16, slab.View(4, 3)});
  return m;
}

// 1-bit push: a real quantizer encoding (sign words + column levels + bias).
Message OneBitPush() {
  Message m;
  m.type = MessageType::kOneBitPush;
  m.codec = WireCodec::kOneBit;
  m.from = Address{1, kSyncerPortBase + 1};
  m.to = Address{0, kServerPort};
  m.layer = 1;
  m.worker = 1;
  m.iter = 2;
  m.seq = 0;
  Tensor gradient({4, 6});
  for (int64_t i = 0; i < gradient.size(); ++i) {
    gradient.data()[i] = ((i % 3) - 1) * (0.5f + 0.125f * static_cast<float>(i));
  }
  const std::vector<float> bias = {0.5f, -0.25f, 1.5f, 0.0f, -1.0f, 2.0f};
  static OneBitQuantizer quantizer;
  static Payload frame = OneBitCodec::Encode(gradient, &quantizer, bias.data(),
                                             static_cast<int64_t>(bias.size()));
  m.chunks.push_back(WireChunk{0, frame.View()});
  return m;
}

// Sufficient-factor broadcast (worker-to-worker port space).
Message SfBroadcast() {
  Message m;
  m.type = MessageType::kSfBroadcast;
  m.codec = WireCodec::kSufficientFactor;
  m.from = Address{2, kSyncerPortBase};
  m.to = Address{0, kSyncerPortBase};
  m.layer = 0;
  m.worker = 2;
  m.iter = 3;
  m.seq = 9;
  SufficientFactors factors;
  factors.u = Tensor::FromVector({4, 1}, {1.0f, -2.0f, 0.5f, 4.0f});
  factors.v = Tensor::FromVector({3, 1}, {0.25f, 8.0f, -1.0f});
  const std::vector<float> bias = {-0.5f, 0.75f, 3.0f};
  static Payload frame = SufficientFactorCodec::Encode(
      factors, bias.data(), static_cast<int64_t>(bias.size()));
  m.chunks.push_back(WireChunk{0, frame.View()});
  return m;
}

// Deterministic gradient-like values that binary16 and int8 cannot represent
// exactly, so stochastic rounding draws noise at every element.
std::vector<float> SyntheticGradient(int64_t n) {
  std::vector<float> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] =
        static_cast<float>((i * 7919) % 2001 - 1000) / 997.0f;
  }
  return values;
}

// A one-frame compressed PS message (gradient push or parameter reply).
Message CompressedMessage(MessageType type, WireCodec codec, int64_t offset,
                          const Payload& frame) {
  Message m;
  m.type = type;
  m.codec = codec;
  const bool push = type == MessageType::kGradPush;
  const Address worker{1, kSyncerPortBase + 4};
  const Address shard{0, kServerPort + 1};
  m.from = push ? worker : shard;
  m.to = push ? shard : worker;
  m.layer = 4;
  m.worker = push ? 1 : 0;
  m.iter = 11;
  m.seq = 3;
  m.chunks.push_back(WireChunk{offset, frame.View()});
  return m;
}

// fp16 stochastic-rounding push: odd length spanning more than two 1024-float
// windows, at a non-zero layer offset (the rounding noise is keyed by it).
Message Fp16Push() {
  static Payload frame = [] {
    const std::vector<float> quant = SyntheticGradient(2049);
    return Fp16Codec::EncodeSr(quant.data(), 2049, QuantSeed(4, 11), 4096, nullptr,
                               nullptr, 0);
  }();
  return CompressedMessage(MessageType::kGradPush, WireCodec::kFp16, 4096, frame);
}

// fp16 round-to-nearest parameter reply (the stateless direction).
Message Fp16Reply() {
  static Payload frame = [] {
    const std::vector<float> values = SyntheticGradient(1025);
    return Fp16Codec::EncodeRn(values.data(), 1025, nullptr, 0);
  }();
  return CompressedMessage(MessageType::kParamReply, WireCodec::kFp16, 0, frame);
}

// int8 push whose length is a multiple of neither 4 (padded last word) nor
// 256 (short last chunk), above two windows.
Message Int8Push() {
  static Payload frame = [] {
    const std::vector<float> quant = SyntheticGradient(2311);
    return Int8Codec::EncodeSr(quant.data(), 2311, QuantSeed(4, 11), 4096, nullptr,
                               nullptr, 0);
  }();
  return CompressedMessage(MessageType::kGradPush, WireCodec::kInt8, 4096, frame);
}

// top-k push whose selected indices sit on 1024-float window edges.
Message TopKPush() {
  static Payload frame = [] {
    std::vector<float> quant = SyntheticGradient(3000);
    for (int64_t edge : {0, 1023, 1024, 2047, 2048, 2999}) {
      quant[static_cast<size_t>(edge)] = (edge % 2 == 0 ? 8.0f : -8.0f) - edge / 512.0f;
    }
    return TopKCodec::Encode(quant.data(), 3000, 6, nullptr, nullptr, 0);
  }();
  return CompressedMessage(MessageType::kGradPush, WireCodec::kTopK, 0, frame);
}

void ExpectSameMessage(const Message& got, const Message& want) {
  EXPECT_EQ(static_cast<int>(got.type), static_cast<int>(want.type));
  EXPECT_EQ(static_cast<int>(got.codec), static_cast<int>(want.codec));
  EXPECT_TRUE(got.from == want.from)
      << got.from.node << ":" << got.from.port << " vs " << want.from.node
      << ":" << want.from.port;
  EXPECT_TRUE(got.to == want.to)
      << got.to.node << ":" << got.to.port << " vs " << want.to.node << ":"
      << want.to.port;
  EXPECT_EQ(got.layer, want.layer);
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.iter, want.iter);
  EXPECT_EQ(got.step, want.step);
  EXPECT_EQ(got.seq, want.seq);
  ASSERT_EQ(got.chunks.size(), want.chunks.size());
  for (size_t i = 0; i < got.chunks.size(); ++i) {
    EXPECT_EQ(got.chunks[i].offset, want.chunks[i].offset);
    ASSERT_EQ(got.chunks[i].view.size(), want.chunks[i].view.size());
    EXPECT_EQ(std::memcmp(got.chunks[i].view.data(), want.chunks[i].view.data(),
                          static_cast<size_t>(want.chunks[i].view.size()) *
                              sizeof(float)),
              0)
        << "payload words differ in chunk " << i;
  }
}

// Every pinned message, by its fixture name.
std::map<std::string, Message> AllMessages() {
  return {{"raw_push", RawPush()},         {"onebit_push", OneBitPush()},
          {"sf_broadcast", SfBroadcast()}, {"fp16_push", Fp16Push()},
          {"fp16_reply", Fp16Reply()},     {"int8_push", Int8Push()},
          {"topk_push", TopKPush()}};
}

std::map<std::string, std::vector<uint8_t>> AllFrames() {
  std::map<std::string, std::vector<uint8_t>> frames;
  for (const auto& [name, message] : AllMessages()) {
    frames[name] = EncodeMessageFrame(message);
  }
  return frames;
}

// ------------------------------------------------------------------ tests --

TEST(WireConformanceTest, LayoutConstantsAreTheAccountedOnes) {
  // These constants are load-bearing for the protocol_sim cost model and the
  // golden fixture alike; they may never drift.
  EXPECT_EQ(kWireFrameBytes, 32);
  EXPECT_EQ(kWireChunkHeaderBytes, 16);
}

TEST(WireConformanceTest, FrameSizeIsExactlyTheAccountedWireBytes) {
  for (const auto& [name, m] : AllMessages()) {
    EXPECT_EQ(static_cast<int64_t>(EncodeMessageFrame(m).size()), m.WireBytes());
  }
}

TEST(WireConformanceTest, HeaderFieldsSitAtTheDocumentedOffsets) {
  const Message m = RawPush();
  const std::vector<uint8_t> frame = EncodeMessageFrame(m);
  ASSERT_GE(frame.size(), static_cast<size_t>(kWireFrameBytes));
  EXPECT_EQ(frame[0], static_cast<uint8_t>(m.type));
  EXPECT_EQ(frame[1], static_cast<uint8_t>(m.codec));
  EXPECT_EQ(frame[2] | (frame[3] << 8), 2);  // num_chunks, u16 LE
  EXPECT_EQ(frame[4] | (frame[5] << 8), 0);  // from.node, i16 LE
  EXPECT_EQ(frame[6] | (frame[7] << 8), 2);  // to.node
  EXPECT_EQ(static_cast<int>(frame[8]) | (frame[9] << 8) | (frame[10] << 16) |
                (frame[11] << 24),
            kSyncerPortBase + 3);  // from.port, i32 LE
  EXPECT_EQ(static_cast<int>(frame[12]) | (frame[13] << 8) | (frame[14] << 16) |
                (frame[15] << 24),
            kServerPort + 1);                  // to.port
  EXPECT_EQ(frame[16] | (frame[17] << 8), 3);  // layer, i16
  EXPECT_EQ(frame[18] | (frame[19] << 8), 0);  // worker
  EXPECT_EQ(static_cast<int16_t>(frame[20] | (frame[21] << 8)), -1);  // step
  EXPECT_EQ(frame[22] | (frame[23] << 8), 0);  // flags
  EXPECT_EQ(static_cast<int>(frame[24]) | (frame[25] << 8) | (frame[26] << 16) |
                (frame[27] << 24),
            7);  // iter
  EXPECT_EQ(static_cast<int>(frame[28]) | (frame[29] << 8) | (frame[30] << 16) |
                (frame[31] << 24),
            5);  // seq
}

TEST(WireConformanceTest, GoldenBytesMatchTheCommittedFixture) {
  const auto frames = AllFrames();
  if (std::getenv("POSEIDON_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    for (const auto& [name, bytes] : frames) {
      out << name << " " << HexEncode(bytes) << "\n";
    }
    out.close();
    std::fprintf(stderr, "regenerated %s\n", GoldenPath().c_str());
  }
  const auto golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing fixture " << GoldenPath();
  for (const auto& [name, bytes] : frames) {
    auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "fixture lacks frame " << name
                                << " (regen with POSEIDON_REGEN_GOLDEN=1)";
    EXPECT_EQ(HexEncode(bytes), it->second)
        << "frame " << name << " drifted from the committed wire format";
  }
  EXPECT_EQ(golden.size(), frames.size()) << "stale extra frames in fixture";
}

TEST(WireConformanceTest, SingleFramesDecodeBitExactly) {
  for (const auto& [name, original] : AllMessages()) {
    SCOPED_TRACE(name);
    Message sent = original;
    sent.send_ns = 12345;  // a sender-clock stamp that must stay behind
    const std::vector<uint8_t> frame = EncodeMessageFrame(sent);
    Message decoded;
    const Status status =
        DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectSameMessage(decoded, original);
    EXPECT_EQ(decoded.send_ns, 0) << "send_ns must never cross the wire";
  }
}

TEST(WireConformanceTest, CompressedCodecIdsCrossTheWire) {
  // fp16 / int8 / top-k pushes ride the same frames as the paper's codecs:
  // the decoder must accept their ids.
  for (WireCodec id : {WireCodec::kFp16, WireCodec::kInt8, WireCodec::kTopK}) {
    SCOPED_TRACE(WireCodecName(id));
    Message single = RawPush();
    single.codec = id;
    const std::vector<uint8_t> frame = EncodeMessageFrame(single);
    Message decoded;
    const Status status =
        DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectSameMessage(decoded, single);
  }
}

TEST(WireConformanceTest, DecodedPayloadsReconstructThroughTheCodecRegistry) {
  // The receiver's real consumption path: look the codec up by the id in the
  // frame header and decode the chunk views. Dense reconstructions must be
  // bitwise identical before and after the socket trip.
  for (const auto& [name, original] : AllMessages()) {
    SCOPED_TRACE(name);
    const std::vector<uint8_t> frame = EncodeMessageFrame(original);
    Message decoded;
    ASSERT_TRUE(
        DecodeWireFrame(frame.data(), static_cast<int64_t>(frame.size()), &decoded)
            .ok());
    const Codec* codec = CodecRegistry::Find(decoded.codec);
    ASSERT_NE(codec, nullptr);
    Tensor before, after;
    std::vector<float> bias_before, bias_after;
    ASSERT_TRUE(
        codec->Decode(original.chunks[0].view, &before, &bias_before).ok());
    ASSERT_TRUE(
        codec->Decode(decoded.chunks[0].view, &after, &bias_after).ok());
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          static_cast<size_t>(before.size()) * sizeof(float)),
              0);
    EXPECT_EQ(bias_before, bias_after);
  }
}

TEST(WireConformanceTest, MalformedFramesReturnStatusNotCrash) {
  const std::vector<uint8_t> frame = EncodeMessageFrame(RawPush());
  Message decoded;
  // Truncations at every boundary: header, chunk header, payload.
  for (int64_t size : {int64_t{0}, int64_t{5}, kWireFrameBytes - 1,
                       kWireFrameBytes + 3, kWireFrameBytes + kWireChunkHeaderBytes,
                       static_cast<int64_t>(frame.size()) - 1}) {
    EXPECT_FALSE(DecodeWireFrame(frame.data(), size, &decoded).ok())
        << "truncation to " << size << " bytes decoded successfully";
  }
  // Trailing garbage must be rejected, not ignored.
  std::vector<uint8_t> padded = frame;
  padded.push_back(0xAB);
  EXPECT_FALSE(
      DecodeWireFrame(padded.data(), static_cast<int64_t>(padded.size()), &decoded)
          .ok());
  // Unknown type and codec ids, 0xFF (the removed batch-frame type) included.
  std::vector<uint8_t> bad_type = frame;
  bad_type[0] = 0xFF;
  EXPECT_FALSE(
      DecodeWireFrame(bad_type.data(), static_cast<int64_t>(bad_type.size()), &decoded)
          .ok());
  std::vector<uint8_t> bad_codec = frame;
  bad_codec[1] = static_cast<uint8_t>(WireCodec::kTopK) + 1;
  EXPECT_FALSE(
      DecodeWireFrame(bad_codec.data(), static_cast<int64_t>(bad_codec.size()), &decoded)
          .ok());
}

}  // namespace
}  // namespace poseidon
