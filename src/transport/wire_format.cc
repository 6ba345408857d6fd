#include "src/transport/wire_format.h"

#include <cstring>
#include <string>

#include "src/common/logging.h"

namespace poseidon {
namespace {

// ---------------------------------------------------------------------------
// Little-endian primitives. The encoder writes byte-by-byte so the layout is
// identical on any host; the decoder mirrors it. Payload float words are
// memcpy'd in bulk (they are already byte sequences — codecs bit-cast
// non-float data into words on both sides, see payload.h).
// ---------------------------------------------------------------------------

void PutU16(std::vector<uint8_t>* out, int64_t at, uint16_t v) {
  (*out)[at] = static_cast<uint8_t>(v & 0xFF);
  (*out)[at + 1] = static_cast<uint8_t>((v >> 8) & 0xFF);
}

void PutU32(std::vector<uint8_t>* out, int64_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

void PutU64(std::vector<uint8_t>* out, int64_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*out)[at + i] = static_cast<uint8_t>((v >> (8 * i)) & 0xFF);
  }
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

int16_t NarrowI16(int64_t v, const char* what) {
  CHECK(v >= INT16_MIN && v <= INT16_MAX)
      << what << " " << v << " does not fit the 16-bit wire field";
  return static_cast<int16_t>(v);
}

int32_t NarrowI32(int64_t v, const char* what) {
  CHECK(v >= INT32_MIN && v <= INT32_MAX)
      << what << " " << v << " does not fit the 32-bit wire field";
  return static_cast<int32_t>(v);
}

// ---------------------------------------------------------------------------
// Batched-frame port compression. A 12-byte entry header cannot carry two
// full 32-bit ports, so ports are stored as (space, index) pairs covering the
// repo's complete port map:
//   space 0: raw port < 2^14 — shard endpoints [0, 1000) and syncer
//            mailboxes 1000 + layer (layer caps below keep these in range)
//   space 1: collective, index = port - kCollectivePortBase
//   space 2: monitor, index ignored (the monitor port is a singleton)
// Space 3 is reserved. 14 index bits per port; both (space, index) pairs fit
// one 32-bit word.
// ---------------------------------------------------------------------------

constexpr int kPortSpaceRaw = 0;
constexpr int kPortSpaceCollective = 1;
constexpr int kPortSpaceMonitor = 2;
constexpr uint32_t kPortIndexMax = (1u << 14) - 1;

uint32_t CompressPort(int port) {
  if (port == kMonitorPort) {
    return static_cast<uint32_t>(kPortSpaceMonitor) | (0u << 2);
  }
  if (port >= kCollectivePortBase) {
    uint32_t index = static_cast<uint32_t>(port - kCollectivePortBase);
    CHECK_LE(index, kPortIndexMax)
        << "collective tag " << index << " too large for a batched entry";
    return static_cast<uint32_t>(kPortSpaceCollective) | (index << 2);
  }
  CHECK(port >= 0 && static_cast<uint32_t>(port) <= kPortIndexMax)
      << "port " << port << " too large for a batched entry";
  return static_cast<uint32_t>(kPortSpaceRaw) |
         (static_cast<uint32_t>(port) << 2);
}

Status ExpandPort(uint32_t packed, int* port) {
  uint32_t space = packed & 0x3;
  uint32_t index = packed >> 2;
  switch (space) {
    case kPortSpaceRaw:
      *port = static_cast<int>(index);
      return Status::Ok();
    case kPortSpaceCollective:
      *port = kCollectivePortBase + static_cast<int>(index);
      return Status::Ok();
    case kPortSpaceMonitor:
      *port = kMonitorPort;
      return Status::Ok();
    default:
      return InvalidArgumentError("batched entry uses reserved port space");
  }
}

// Packed 12-byte batch entry header: three little-endian u32 words.
//   word0: bits [0..15]  compressed to-port, [16..31] compressed from-port
//   word1: bits [0..2]   type, [3..5] codec, [6..15] num_chunks,
//          [16..25] layer + 1, [26..31] worker + 1
//   word2: bits [0..6]   step + 1, [7..31] seq + 1
// The +1 biases let -1 sentinels ride unsigned fields. Ranges (layer <= 1022,
// worker <= 62, step <= 126, seq <= 2^25 - 2, chunks <= 1023) are CHECKed at
// encode: the cluster shapes this repo trains are orders of magnitude below
// every cap, and a loud abort beats silent truncation.
struct PackedEntry {
  uint32_t word0 = 0;
  uint32_t word1 = 0;
  uint32_t word2 = 0;
};

PackedEntry PackEntryHeader(const Message& m) {
  CHECK(m.layer >= -1 && m.layer <= 1021) << "layer out of batched range";
  CHECK(m.worker >= -1 && m.worker <= 61) << "worker out of batched range";
  CHECK(m.step >= -1 && m.step <= 125) << "step out of batched range";
  CHECK(m.seq >= -1 && m.seq <= (1 << 25) - 2) << "seq out of batched range";
  CHECK_LE(m.chunks.size(), 1023u) << "too many chunks for a batched entry";
  PackedEntry e;
  e.word0 = CompressPort(m.to.port) | (CompressPort(m.from.port) << 16);
  e.word1 = (static_cast<uint32_t>(m.type) & 0x7) |
            ((static_cast<uint32_t>(m.codec) & 0x7) << 3) |
            ((static_cast<uint32_t>(m.chunks.size()) & 0x3FF) << 6) |
            ((static_cast<uint32_t>(m.layer + 1) & 0x3FF) << 16) |
            ((static_cast<uint32_t>(m.worker + 1) & 0x3F) << 26);
  e.word2 = (static_cast<uint32_t>(m.step + 1) & 0x7F) |
            (static_cast<uint32_t>(m.seq + 1) << 7);
  return e;
}

Status UnpackEntryHeader(const PackedEntry& e, int from_node, int to_node,
                         int64_t iter, Message* m) {
  int to_port = 0;
  int from_port = 0;
  Status status = ExpandPort(e.word0 & 0xFFFF, &to_port);
  if (!status.ok()) return status;
  status = ExpandPort(e.word0 >> 16, &from_port);
  if (!status.ok()) return status;
  uint32_t type = e.word1 & 0x7;
  if (type > static_cast<uint32_t>(MessageType::kShutdown)) {
    return InvalidArgumentError("batched entry has unknown message type " +
                                std::to_string(type));
  }
  uint32_t codec = (e.word1 >> 3) & 0x7;
  if (codec > static_cast<uint32_t>(WireCodec::kTopK)) {
    return InvalidArgumentError("batched entry has unknown codec " +
                                std::to_string(codec));
  }
  m->type = static_cast<MessageType>(type);
  m->codec = static_cast<WireCodec>(codec);
  m->from = Address{from_node, from_port};
  m->to = Address{to_node, to_port};
  m->layer = static_cast<int>((e.word1 >> 16) & 0x3FF) - 1;
  m->worker = static_cast<int>((e.word1 >> 26) & 0x3F) - 1;
  m->step = static_cast<int>(e.word2 & 0x7F) - 1;
  m->seq = static_cast<int64_t>(e.word2 >> 7) - 1;
  m->iter = iter;
  m->send_ns = 0;
  m->chunks.clear();
  m->chunks.reserve((e.word1 >> 6) & 0x3FF);
  return Status::Ok();
}

// Writes the shared 32-byte frame header. For batched frames `type` is
// kWireBatchType, `count` is the entry count and the port fields are zero.
void WriteFrameHeader(std::vector<uint8_t>* out, uint8_t type, uint8_t codec,
                      uint16_t count, const Address& from, const Address& to,
                      int layer, int worker, int step, int64_t iter,
                      int64_t seq) {
  (*out)[0] = type;
  (*out)[1] = codec;
  PutU16(out, 2, count);
  PutU16(out, 4, static_cast<uint16_t>(NarrowI16(from.node, "from.node")));
  PutU16(out, 6, static_cast<uint16_t>(NarrowI16(to.node, "to.node")));
  PutU32(out, 8, static_cast<uint32_t>(NarrowI32(from.port, "from.port")));
  PutU32(out, 12, static_cast<uint32_t>(NarrowI32(to.port, "to.port")));
  PutU16(out, 16, static_cast<uint16_t>(NarrowI16(layer, "layer")));
  PutU16(out, 18, static_cast<uint16_t>(NarrowI16(worker, "worker")));
  PutU16(out, 20, static_cast<uint16_t>(NarrowI16(step, "step")));
  PutU16(out, 22, 0);  // flags, reserved
  PutU32(out, 24, static_cast<uint32_t>(NarrowI32(iter, "iter")));
  PutU32(out, 28, static_cast<uint32_t>(NarrowI32(seq, "seq")));
}

// Appends one chunk header + its payload words at `at`; returns the new
// write offset.
int64_t WriteChunk(std::vector<uint8_t>* out, int64_t at,
                   const WireChunk& chunk) {
  PutU64(out, at, static_cast<uint64_t>(chunk.offset));
  PutU64(out, at + 8, static_cast<uint64_t>(chunk.view.size()));
  at += kWireChunkHeaderBytes;
  const int64_t bytes = chunk.view.size() * 4;
  if (bytes > 0) {
    std::memcpy(out->data() + at, chunk.view.data(), bytes);
  }
  return at + bytes;
}

// Frame-relative decode cursor with bounds-checked reads: every malformed or
// truncated input path lands here and returns Status instead of reading out
// of bounds.
struct Cursor {
  const uint8_t* data;
  int64_t size;
  int64_t at = 0;

  int64_t remaining() const { return size - at; }

  Status Need(int64_t bytes, const char* what) {
    if (remaining() < bytes) {
      return OutOfRangeError(std::string("wire frame truncated in ") + what +
                             ": need " + std::to_string(bytes) + " bytes, " +
                             std::to_string(remaining()) + " left");
    }
    return Status::Ok();
  }
};

// Reads `count` chunk headers + payloads into `m`, copying payload words
// into `slab` starting at *slab_at (the caller sized the slab from the frame
// length, so the writes always fit).
Status ReadChunks(Cursor* c, int count, const Payload& slab, int64_t* slab_at,
                  Message* m) {
  for (int i = 0; i < count; ++i) {
    Status status = c->Need(kWireChunkHeaderBytes, "chunk header");
    if (!status.ok()) return status;
    const int64_t offset = static_cast<int64_t>(GetU64(c->data + c->at));
    const int64_t words = static_cast<int64_t>(GetU64(c->data + c->at + 8));
    c->at += kWireChunkHeaderBytes;
    if (offset < 0 || words < 0 || words > c->remaining() / 4 + 1) {
      return InvalidArgumentError("wire chunk header has implausible size");
    }
    status = c->Need(words * 4, "chunk payload");
    if (!status.ok()) return status;
    WireChunk chunk;
    chunk.offset = offset;
    if (words > 0) {
      std::memcpy(const_cast<float*>(slab.data()) + *slab_at, c->data + c->at,
                  words * 4);
    }
    chunk.view = slab.View(*slab_at, words);
    *slab_at += words;
    c->at += words * 4;
    m->chunks.push_back(std::move(chunk));
  }
  return Status::Ok();
}

Status DecodeMessageFrame(Cursor* c, std::vector<Message>* out) {
  const uint8_t* h = c->data;
  uint32_t type = h[0];
  if (type > static_cast<uint32_t>(MessageType::kShutdown)) {
    return InvalidArgumentError("wire frame has unknown message type " +
                                std::to_string(type));
  }
  uint32_t codec = h[1];
  if (codec > static_cast<uint32_t>(WireCodec::kTopK)) {
    return InvalidArgumentError("wire frame has unknown codec " +
                                std::to_string(codec));
  }
  Message m;
  m.type = static_cast<MessageType>(type);
  m.codec = static_cast<WireCodec>(codec);
  const int num_chunks = GetU16(h + 2);
  m.from.node = static_cast<int16_t>(GetU16(h + 4));
  m.to.node = static_cast<int16_t>(GetU16(h + 6));
  m.from.port = static_cast<int32_t>(GetU32(h + 8));
  m.to.port = static_cast<int32_t>(GetU32(h + 12));
  m.layer = static_cast<int16_t>(GetU16(h + 16));
  m.worker = static_cast<int16_t>(GetU16(h + 18));
  m.step = static_cast<int16_t>(GetU16(h + 20));
  m.iter = static_cast<int32_t>(GetU32(h + 24));
  m.seq = static_cast<int32_t>(GetU32(h + 28));
  c->at = kWireFrameBytes;

  // All payload words of the frame share one slab; remaining bytes bound it.
  Payload slab = Payload::Allocate(c->remaining() / 4);
  int64_t slab_at = 0;
  Status status = ReadChunks(c, num_chunks, slab, &slab_at, &m);
  if (!status.ok()) return status;
  if (c->remaining() != 0) {
    return InvalidArgumentError("wire frame has trailing bytes");
  }
  out->push_back(std::move(m));
  return Status::Ok();
}

Status DecodeBatchFrame(Cursor* c, std::vector<Message>* out) {
  const uint8_t* h = c->data;
  const int num_entries = GetU16(h + 2);
  const int from_node = static_cast<int16_t>(GetU16(h + 4));
  const int to_node = static_cast<int16_t>(GetU16(h + 6));
  const int64_t iter = static_cast<int32_t>(GetU32(h + 24));
  c->at = kWireFrameBytes;

  Payload slab = Payload::Allocate(c->remaining() / 4);
  int64_t slab_at = 0;
  for (int i = 0; i < num_entries; ++i) {
    Status status = c->Need(kBatchEntryHeaderBytes, "batch entry header");
    if (!status.ok()) return status;
    PackedEntry e;
    e.word0 = GetU32(c->data + c->at);
    e.word1 = GetU32(c->data + c->at + 4);
    e.word2 = GetU32(c->data + c->at + 8);
    c->at += kBatchEntryHeaderBytes;
    Message m;
    status = UnpackEntryHeader(e, from_node, to_node, iter, &m);
    if (!status.ok()) return status;
    const int num_chunks = static_cast<int>((e.word1 >> 6) & 0x3FF);
    status = ReadChunks(c, num_chunks, slab, &slab_at, &m);
    if (!status.ok()) return status;
    out->push_back(std::move(m));
  }
  if (c->remaining() != 0) {
    return InvalidArgumentError("batched wire frame has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

std::vector<uint8_t> EncodeMessageFrame(const Message& message) {
  std::vector<uint8_t> out(static_cast<size_t>(message.WireBytes()));
  CHECK_LE(message.chunks.size(), 0xFFFFu) << "too many chunks for one frame";
  WriteFrameHeader(&out, static_cast<uint8_t>(message.type),
                   static_cast<uint8_t>(message.codec),
                   static_cast<uint16_t>(message.chunks.size()), message.from,
                   message.to, message.layer, message.worker, message.step,
                   message.iter, message.seq);
  int64_t at = kWireFrameBytes;
  for (const WireChunk& chunk : message.chunks) {
    at = WriteChunk(&out, at, chunk);
  }
  CHECK_EQ(at, static_cast<int64_t>(out.size()));
  return out;
}

std::vector<uint8_t> EncodeBatchFrame(const std::vector<Message>& entries) {
  CHECK(!entries.empty()) << "cannot encode an empty batch";
  CHECK_LE(entries.size(), 0xFFFFu) << "too many entries for one batch frame";
  int64_t total = kWireFrameBytes;
  for (const Message& m : entries) {
    CHECK_EQ(m.from.node, entries[0].from.node)
        << "batched entries must share a source node";
    CHECK_EQ(m.to.node, entries[0].to.node)
        << "batched entries must share a destination node";
    CHECK_EQ(m.iter, entries[0].iter) << "batched entries must share an iter";
    total += kBatchEntryHeaderBytes + m.PayloadBytes();
  }
  std::vector<uint8_t> out(static_cast<size_t>(total));
  WriteFrameHeader(&out, kWireBatchType, 0,
                   static_cast<uint16_t>(entries.size()),
                   Address{entries[0].from.node, 0},
                   Address{entries[0].to.node, 0}, -1, -1, -1,
                   entries[0].iter, -1);
  int64_t at = kWireFrameBytes;
  for (const Message& m : entries) {
    const PackedEntry e = PackEntryHeader(m);
    PutU32(&out, at, e.word0);
    PutU32(&out, at + 4, e.word1);
    PutU32(&out, at + 8, e.word2);
    at += kBatchEntryHeaderBytes;
    for (const WireChunk& chunk : m.chunks) {
      at = WriteChunk(&out, at, chunk);
    }
  }
  CHECK_EQ(at, total);
  return out;
}

Status DecodeWireFrame(const uint8_t* data, int64_t size,
                       std::vector<Message>* out) {
  if (size < kWireFrameBytes) {
    return OutOfRangeError("wire frame shorter than the frame header: " +
                           std::to_string(size) + " bytes");
  }
  Cursor c{data, size};
  if (data[0] == kWireBatchType) {
    return DecodeBatchFrame(&c, out);
  }
  return DecodeMessageFrame(&c, out);
}

bool IsBatchFrame(const uint8_t* data, int64_t size) {
  return size >= 1 && data[0] == kWireBatchType;
}

}  // namespace poseidon
