#include "src/transport/message.h"

namespace poseidon {

int64_t Message::WireBytes() const {
  int64_t bytes = kWireFrameBytes;
  for (const WireChunk& chunk : chunks) {
    bytes += kWireChunkHeaderBytes + chunk.view.size() * 4;
  }
  return bytes;
}

}  // namespace poseidon
