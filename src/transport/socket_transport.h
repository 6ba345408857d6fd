/// \file
/// TCP / Unix-domain socket backend for the Transport seam: real OS
/// processes exchanging the exact docs/WIRE_FORMAT.md frames the in-process
/// bus accounts for.
///
/// Topology: a cluster is N processes, each hosting one or more bus nodes
/// (`node_owner[node]` = process index). Every process listens on one
/// endpoint (TCP loopback/host port, or a Unix socket path) and dials one
/// egress connection to every other process — a full mesh where, per peer,
///   * the dialed connection carries this process's egress only, fed by a
///     dedicated writer thread that drains a deque with batched writev
///     (many records per syscall, never one write per message — the
///     userspace-networking idiom from SNIPPETS.md), and
///   * accepted connections carry ingress only, served by a single poll
///     thread (nonblocking accept + level-triggered poll, incremental
///     record reassembly) that hands complete data records to
///     MessageBus::DeliverWire and control records to the registered
///     handler.
///
/// Stream records: each record is [u32 body bytes][u8 version][u8 kind]
/// [u16 src process] + body. kData bodies are wire frames byte-for-byte;
/// the 8-byte record header is transport overhead outside the accounted
/// WireBytes, like an Ethernet preamble. kControl bodies are
/// [u16 opcode] + payload and carry the rendezvous protocol
/// (src/transport/cluster_launcher.h).
///
/// Network weather is not this layer's business: a bus with fault injection
/// enabled rolls its seeded dice per message before the frame reaches
/// SendFrame, and the receiving bus repairs order and duplicates. The
/// transport adds no weather of its own: records it writes arrive in order,
/// once.
#ifndef POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_
#define POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/transport/transport.h"

namespace poseidon {

class MessageBus;

/// Where one process listens. `unix_path` non-empty selects an AF_UNIX
/// stream socket (host/port ignored); otherwise TCP on host:port.
struct SocketEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string unix_path;

  bool is_unix() const { return !unix_path.empty(); }
};

/// Record kinds on the byte stream.
enum class SocketRecordKind : uint8_t {
  kData = 0,     ///< body = one wire frame
  kControl = 1,  ///< body = u16 opcode + payload (rendezvous protocol)
};

/// Fixed stream overhead per record (u32 length, u8 version, u8 kind,
/// u16 src process).
inline constexpr int64_t kSocketRecordHeaderBytes = 8;
inline constexpr uint8_t kSocketRecordVersion = 1;
/// Upper bound on one record body; larger ingress records are a protocol
/// error (guards the reassembly buffer against corrupt length prefixes).
inline constexpr int64_t kMaxSocketRecordBytes = 256ll << 20;

struct SocketTransportOptions {
  /// This process's index into `processes`.
  int self = 0;
  /// Listen endpoint per process, cluster-wide (every process gets the same
  /// table; rendezvous is just "everyone knows everyone's port").
  std::vector<SocketEndpoint> processes;
  /// Bus node id -> owning process index. Size = number of bus nodes.
  std::vector<int> node_owner;
  /// How long ConnectAll keeps retrying a refused peer before giving up
  /// (peers start in arbitrary order; refusal just means "not up yet").
  int connect_timeout_ms = 20000;
};

/// Receives control-plane records: (source process, opcode, body after the
/// opcode). Runs on the poll thread — handlers must not block on ingress.
using SocketControlHandler =
    std::function<void(int src_process, uint16_t opcode,
                       const std::vector<uint8_t>& body)>;

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Must be set before Start (the poll thread reads it unsynchronized).
  void SetControlHandler(SocketControlHandler handler);

  /// Binds + listens on our endpoint and starts the ingress poll thread.
  /// Data records are delivered into `bus` (DeliverWire). When our endpoint
  /// has port 0 (TCP), the kernel picks one — see listen_port().
  Status Start(MessageBus* bus);

  /// Dials every other process, retrying refusals until connect_timeout_ms,
  /// and starts one egress writer per peer. Call after every process has
  /// had Start() invoked (the launcher guarantees this by publishing the
  /// endpoint table only after binding all listeners).
  Status ConnectAll();

  /// The port we actually listen on (after Start; = endpoint port unless it
  /// was 0). Unix endpoints return 0.
  int listen_port() const { return listen_port_; }

  /// Stops writers and the poll thread, closes every socket, unlinks our
  /// Unix path. Idempotent; called by the destructor.
  void Stop();

  /// Enqueues a control record to `dst_process`. To self is delivered
  /// inline on the caller's thread.
  Status SendControl(int dst_process, uint16_t opcode,
                     std::vector<uint8_t> body = {});

  // Transport interface -----------------------------------------------------
  const char* name() const override;
  bool IsLocal(int node) const override;
  Status SendFrame(int src_node, int dst_node,
                   std::vector<uint8_t> frame) override;
  /// Drains every peer's egress deque to the socket.
  void Flush() override;

  // Introspection -----------------------------------------------------------
  int self() const { return options_.self; }
  int num_processes() const { return static_cast<int>(options_.processes.size()); }
  int64_t records_sent() const;
  int64_t records_received() const;
  int64_t bytes_sent() const;
  int64_t bytes_received() const;

 private:
  /// Egress state toward one peer process.
  struct Peer {
    int fd = -1;
    std::mutex mutex;
    std::condition_variable cv;       // wakes the writer
    std::condition_variable idle_cv;  // signals Flush waiters
    std::deque<std::vector<uint8_t>> queue;  // records ready to write
    bool stop = false;
    bool dead = false;  // write error: peer is gone
    int writing = 0;
    std::thread writer;
  };

  /// Ingress reassembly state for one accepted connection.
  struct Ingress {
    int fd = -1;
    std::vector<uint8_t> buffer;
  };

  std::vector<uint8_t> BuildRecord(SocketRecordKind kind,
                                   const std::vector<uint8_t>& body) const;
  /// Appends a built record to `dst_process`'s egress deque and wakes its
  /// writer; Unavailable once that connection is down.
  Status Enqueue(int dst_process, std::vector<uint8_t> record);
  void WriterLoop(int peer_index);
  void PollLoop();
  /// Parses complete records out of `in.buffer`; returns false on a protocol
  /// error (connection is then dropped).
  bool DrainIngress(Ingress& in);
  void HandleRecord(uint8_t kind, uint16_t src_process, const uint8_t* body,
                    int64_t size);
  Status DialPeer(int peer_index);
  void WakeOnSelfPipe();

  const SocketTransportOptions options_;
  SocketControlHandler control_handler_;
  MessageBus* bus_ = nullptr;

  int listen_fd_ = -1;
  int listen_port_ = 0;
  int wake_pipe_[2] = {-1, -1};  // poll-thread wakeup for Stop
  std::thread poll_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by process, self unused

  std::atomic<int64_t> records_sent_{0};
  std::atomic<int64_t> records_received_{0};
  std::atomic<int64_t> bytes_sent_{0};
  std::atomic<int64_t> bytes_received_{0};
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_SOCKET_TRANSPORT_H_
