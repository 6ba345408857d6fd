/// \file
/// Byte-exact serialization of wire messages: the docs/WIRE_FORMAT.md frames
/// become real bytes here, and the socket transport ships them verbatim.
///
/// Layout invariant: an encoded frame is exactly `Message::WireBytes()`
/// bytes (32-byte frame header + per chunk a 16-byte chunk header + 4 bytes
/// per payload word) — the traffic accounting the bus, the cost model and the
/// benches have always charged is the truth on the wire, not an
/// approximation. tests/wire_conformance_test.cc pins the exact bytes with a
/// committed golden fixture.
///
/// Message frame header (32 bytes, little-endian):
///   [0]  u8  type          MessageType
///   [1]  u8  codec         WireCodec
///   [2]  u16 num_chunks
///   [4]  i16 from_node
///   [6]  i16 to_node
///   [8]  i32 from_port
///   [12] i32 to_port
///   [16] i16 layer
///   [18] i16 worker
///   [20] i16 step
///   [22] u16 flags         (reserved, 0)
///   [24] i32 iter
///   [28] i32 seq           (-1 = unsequenced)
/// Chunk header (16 bytes): i64 float offset, i64 length in words; followed
/// by length*4 payload bytes (float words copied bit-exactly, so bit-cast
/// codec headers and 1-bit sign words survive).
///
/// `Message::send_ns` never crosses the wire: it is a per-process
/// steady-clock stamp, meaningless on another machine. The receiving bus
/// restamps it on ingress so delivery latency is measured entirely on the
/// receiver's clock (see MessageBus::DeliverWire).
///
/// Below the frame layer the socket stream carries 8-byte records
/// ([u32 body length][u8 version][u8 kind][u16 src process]); that record
/// header is transport overhead, excluded from the accounted wire bytes the
/// same way an Ethernet preamble would be (see docs/TRANSPORT.md).
#ifndef POSEIDON_SRC_TRANSPORT_WIRE_FORMAT_H_
#define POSEIDON_SRC_TRANSPORT_WIRE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/transport/message.h"

namespace poseidon {

/// Serializes one message into an exact docs/WIRE_FORMAT.md frame. The
/// result has size `message.WireBytes()`. CHECKs that header fields fit
/// their wire widths (node/layer/worker/step in 16 bits, iter/seq in 32).
std::vector<uint8_t> EncodeMessageFrame(const Message& message);

/// Decodes one frame into `out`. Payload words land in one fresh slab per
/// frame; every chunk view aliases it (zero-copy fan-out on the receive
/// side). Returns InvalidArgument/OutOfRange on truncated or malformed input
/// (an unknown message type or codec id included) — wire bytes must never
/// crash a receiver.
Status DecodeWireFrame(const uint8_t* data, int64_t size, Message* out);

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_WIRE_FORMAT_H_
