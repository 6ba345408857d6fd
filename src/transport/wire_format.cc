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

}  // namespace

std::vector<uint8_t> EncodeMessageFrame(const Message& m) {
  std::vector<uint8_t> out(static_cast<size_t>(m.WireBytes()));
  CHECK_LE(m.chunks.size(), 0xFFFFu) << "too many chunks for one frame";
  out[0] = static_cast<uint8_t>(m.type);
  out[1] = static_cast<uint8_t>(m.codec);
  PutU16(&out, 2, static_cast<uint16_t>(m.chunks.size()));
  PutU16(&out, 4, static_cast<uint16_t>(NarrowI16(m.from.node, "from.node")));
  PutU16(&out, 6, static_cast<uint16_t>(NarrowI16(m.to.node, "to.node")));
  PutU32(&out, 8, static_cast<uint32_t>(NarrowI32(m.from.port, "from.port")));
  PutU32(&out, 12, static_cast<uint32_t>(NarrowI32(m.to.port, "to.port")));
  PutU16(&out, 16, static_cast<uint16_t>(NarrowI16(m.layer, "layer")));
  PutU16(&out, 18, static_cast<uint16_t>(NarrowI16(m.worker, "worker")));
  PutU16(&out, 20, static_cast<uint16_t>(NarrowI16(m.step, "step")));
  PutU16(&out, 22, 0);  // flags, reserved
  PutU32(&out, 24, static_cast<uint32_t>(NarrowI32(m.iter, "iter")));
  PutU32(&out, 28, static_cast<uint32_t>(NarrowI32(m.seq, "seq")));
  int64_t at = kWireFrameBytes;
  for (const WireChunk& chunk : m.chunks) {
    at = WriteChunk(&out, at, chunk);
  }
  CHECK_EQ(at, static_cast<int64_t>(out.size()));
  return out;
}

Status DecodeWireFrame(const uint8_t* data, int64_t size, Message* out) {
  if (size < kWireFrameBytes) {
    return OutOfRangeError("wire frame shorter than the frame header: " +
                           std::to_string(size) + " bytes");
  }
  const uint8_t* h = data;
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

  // All payload words of the frame share one slab, copied in bulk; the
  // remaining bytes bound it, so the writes always fit.
  Cursor c{data, size, kWireFrameBytes};
  Payload slab = Payload::Allocate(c.remaining() / 4);
  int64_t slab_at = 0;
  for (int i = 0; i < num_chunks; ++i) {
    Status status = c.Need(kWireChunkHeaderBytes, "chunk header");
    if (!status.ok()) return status;
    const int64_t offset = static_cast<int64_t>(GetU64(c.data + c.at));
    const int64_t words = static_cast<int64_t>(GetU64(c.data + c.at + 8));
    c.at += kWireChunkHeaderBytes;
    if (offset < 0 || words < 0 || words > c.remaining() / 4 + 1) {
      return InvalidArgumentError("wire chunk header has implausible size");
    }
    status = c.Need(words * 4, "chunk payload");
    if (!status.ok()) return status;
    WireChunk chunk;
    chunk.offset = offset;
    if (words > 0) {
      std::memcpy(const_cast<float*>(slab.data()) + slab_at, c.data + c.at, words * 4);
    }
    chunk.view = slab.View(slab_at, words);
    slab_at += words;
    c.at += words * 4;
    m.chunks.push_back(std::move(chunk));
  }
  if (c.remaining() != 0) {
    return InvalidArgumentError("wire frame has trailing bytes");
  }
  *out = std::move(m);
  return Status::Ok();
}

}  // namespace poseidon
