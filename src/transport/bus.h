/// \file
/// In-process message bus with per-endpoint mailboxes and optional egress
/// rate limiting.
///
/// This stands in for the paper's Ethernet + ZMQ layer: every endpoint
/// (server service loop, worker syncer mailbox) registers a blocking queue;
/// Send() routes by address. A token-bucket rate limiter can be attached per
/// node to emulate a bounded-egress NIC in wall-clock time (used by examples;
/// the quantitative bandwidth experiments use the virtual-time fabric in
/// src/sim instead). Traffic is accounted per node for the load-balance
/// experiments. Every message is delivered (or handed to the transport) on
/// its sender's thread: no egress queue sits between a layer's sync and the
/// wire, so a dependent push -> apply -> reply step pays no timer latency.
///
/// Fault injection (EnableFaultInjection): a seeded FaultInjector sits on
/// the remote delivery path and drops (with link-layer retransmit),
/// duplicates, delays, or partitions traffic; every remote data message is
/// stamped with a per-stream sequence number and passes through a
/// receiver-side ReorderBuffer that deduplicates and restores per-stream
/// FIFO order before the consumer sees it. Traffic counters keep reporting
/// the fault-free logical traffic; the injected weather is accounted
/// separately in FaultCounters (see docs/FAULT_TOLERANCE.md).
#ifndef POSEIDON_SRC_TRANSPORT_BUS_H_
#define POSEIDON_SRC_TRANSPORT_BUS_H_

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/blocking_queue.h"
#include "src/common/status.h"
#include "src/stats/metrics.h"
#include "src/transport/fault_injector.h"
#include "src/transport/message.h"
#include "src/transport/rate_limiter.h"
#include "src/transport/sequencer.h"
#include "src/transport/transport.h"

namespace poseidon {

/// Observed traffic on one directed (src node, dst node) link since
/// EnableLinkStats: wire bytes, wire messages, and the distribution of
/// bus-accept-to-mailbox-push delivery latency.
struct LinkStat {
  int src = 0;
  int dst = 0;
  int64_t bytes = 0;
  int64_t messages = 0;
  Histogram::Snapshot delivery_latency_ns;
  /// bytes * 8 over the observation window — the live per-link bandwidth
  /// estimate the CommPlanner consumes.
  double observed_gbps = 0.0;
};

/// Point-in-time per-link traffic matrix (links with no traffic omitted).
struct ObservedLinkStats {
  double window_s = 0.0;  ///< seconds since EnableLinkStats
  std::vector<LinkStat> links;

  /// The stat for (src, dst), or nullptr if that link carried no traffic.
  const LinkStat* Find(int src, int dst) const {
    for (const LinkStat& link : links) {
      if (link.src == src && link.dst == dst) {
        return &link;
      }
    }
    return nullptr;
  }
};

class MessageBus {
 public:
  using Mailbox = BlockingQueue<Message>;

  explicit MessageBus(int num_nodes);
  ~MessageBus();

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Creates (or returns) the mailbox for `address`. Thread-safe.
  std::shared_ptr<Mailbox> Register(const Address& address);

  /// Routes `message` to its destination mailbox. Returns NotFound if the
  /// destination was never registered. Applies the sender's rate limit, if
  /// any, based on the message's wire size; the limiter wait never holds the
  /// bus lock, so one node's throttled egress cannot stall another node's
  /// sends.
  Status Send(Message message);

  /// Attaches the frame carrier for destinations outside this process (call
  /// at most once, before traffic flows; mutually exclusive with
  /// EnableFaultInjection — cross-process chaos lives in the socket
  /// transport's lossy shim instead). Once attached, Send() serializes
  /// messages for non-local nodes into docs/WIRE_FORMAT.md frames and hands
  /// them to the transport; every remote data message is stamped from a
  /// per-stream sequencer so the receiving bus can deduplicate and restore
  /// FIFO order whatever the wire does (see DeliverWire).
  void AttachTransport(std::shared_ptr<Transport> transport);
  /// The attached backend; null means the historical in-process-only bus.
  Transport* transport() const { return transport_.get(); }

  /// Ingress from the transport: decodes one wire frame and delivers its
  /// message to the local mailbox. Sequenced messages pass through the wire reorder buffer (dedup + in-order
  /// release); `send_ns` is restamped here, on the receiver's clock, so
  /// delivery-latency stats never compare steady clocks of two processes.
  /// Returns InvalidArgument/OutOfRange on malformed bytes. Thread-safe.
  Status DeliverWire(const uint8_t* data, int64_t size);

  /// Dedup/reorder counters of the wire ingress path (all zero until a
  /// transport is attached and weather happens).
  FaultCountersSnapshot WireCounters() const;

  /// Blocks until the attached transport has written every queued frame
  /// (no-op without a transport: in-process delivery is synchronous).
  void FlushEgress();

  /// Turns on the seeded fault-injection fabric (call at most once, before
  /// traffic flows). Spawns the delivery-pump thread that serves delayed,
  /// duplicated, retransmitted, and partition-held messages.
  void EnableFaultInjection(const FaultPlan& plan);
  bool faults_enabled() const { return injector_ != nullptr; }
  /// The injector (partition control, counters); null when disabled.
  FaultInjector* fault_injector() { return injector_.get(); }

  /// Blocks until no delayed/retransmit deliveries are pending. Messages
  /// parked behind an active partition are excluded (they flow on heal).
  /// No-op without fault injection.
  void FlushFaults();

  /// Cuts both directions between `a` and `b` (requires fault injection).
  void Partition(int a, int b);
  /// Restores all cut links and immediately replays parked traffic.
  void HealPartitions();
  /// Test hook: blocks until at least `n` messages (cumulative) have been
  /// parked behind an active partition — a condition wait on the pump, so a
  /// heal can be scheduled after the cut provably touched live traffic
  /// instead of after a wall-clock guess. False on timeout or when fault
  /// injection is off.
  bool AwaitPartitionHolds(int64_t n, int timeout_ms);

  /// Simulates the death of a node's endpoints: closes and unregisters every
  /// mailbox at `node` with port in [min_port, max_port), so blocked
  /// receivers wake (Pop returns nullopt) and a restarted process can
  /// Register fresh mailboxes at the same addresses. In-flight messages to
  /// the closed endpoints are dropped and counted
  /// (FaultCounters::dropped_replies). Callers bound the range so endpoints
  /// owned by *other* processes colocated on the node (the coordinator's
  /// monitor mailbox at kMonitorPort) survive a worker-process death.
  void CloseEndpoints(int node, int min_port, int max_port = INT_MAX);

  /// Attaches a wall-clock egress limit (bytes/s) to `node`; 0 removes it.
  void SetEgressLimit(int node, double bytes_per_sec);
  /// The node's current limiter (tests synchronize on its waiter count);
  /// null when no limit is set.
  std::shared_ptr<RateLimiter> egress_limiter(int node) const;

  /// Turns on per-(src,dst) link accounting: bytes, wire messages, and
  /// delivery-latency histograms per directed node pair. Remote messages are
  /// stamped at Send() and the latency recorded at the final mailbox push,
  /// so injected fault delays show up in the distribution. Idempotent; cheap enough to leave on (a few relaxed adds
  /// per wire message).
  void EnableLinkStats();
  bool link_stats_enabled() const {
    return link_stats_enabled_.load(std::memory_order_acquire);
  }
  /// Snapshot of every link that carried traffic since EnableLinkStats.
  /// Lifetime-cumulative: bytes/messages/observed_gbps average over the whole
  /// time stats have been on.
  ObservedLinkStats SnapshotLinkStats() const;

  /// Snapshot of traffic since the *previous* SnapshotLinkStatsDelta call
  /// (since EnableLinkStats on the first call): `window_s`, per-link bytes,
  /// messages and `observed_gbps` all cover just that window, which is what
  /// the bandwidth-feedback Replanner wants — the current window's rate, not
  /// a since-boot average that old traffic dominates. Delivery-latency
  /// histograms remain cumulative (bucket deltas are not meaningful per
  /// window). Callers taking deltas should use one sampling loop: concurrent
  /// delta takers would split the traffic between them.
  ObservedLinkStats SnapshotLinkStatsDelta();

  /// Cumulative egress bytes per node (exact frame sizes, framing included).
  std::vector<int64_t> TxBytes() const;
  int64_t TxBytes(int node) const;
  /// Cumulative wire messages per node.
  std::vector<int64_t> TxMessages() const;
  int64_t TxMessages(int node) const;
  void ResetTraffic();

  /// Closes every mailbox (wakes all blocked receivers).
  void CloseAll();

  int num_nodes() const { return static_cast<int>(tx_bytes_.size()); }

 private:
  /// One message waiting on the fault pump: a delayed or duplicated
  /// delivery, a scheduled retransmission, or partition-parked traffic.
  struct TimedDelivery {
    std::chrono::steady_clock::time_point due;
    uint64_t order = 0;  // FIFO tie-break for equal due times
    std::shared_ptr<Mailbox> mailbox;
    Message message;
    int attempt = 0;
    /// True: just commit at `due` (the fault dice were already rolled);
    /// false: this is a fresh transmission attempt (retransmit) that rolls
    /// its own dice.
    bool commit_only = false;
  };
  struct TimedDeliveryLater {
    bool operator()(const TimedDelivery& a, const TimedDelivery& b) const {
      return a.due != b.due ? a.due > b.due : a.order > b.order;
    }
  };

  /// One directed link's accumulators (allocated n*n by EnableLinkStats).
  struct LinkCell {
    LinkCell() : latency_ns(LatencyBucketsNs()) {}
    std::atomic<int64_t> bytes{0};
    std::atomic<int64_t> messages{0};
    Histogram latency_ns;
  };

  /// Accounts `bytes` of wire traffic on src -> dst (no-op when disabled).
  void RecordLinkTx(int src, int dst, int64_t bytes);
  /// Records bus-accept-to-push latency for a stamped remote message.
  void RecordLinkDelivery(const Message& message);

  /// Copies the routing state for `message` under the bus lock.
  Status Route(const Message& message, std::shared_ptr<Mailbox>* mailbox,
               std::shared_ptr<RateLimiter>* limiter) const;
  /// True when `node`'s mailboxes are hosted by another process.
  bool IsWireRemote(int node) const {
    return transport_ != nullptr && !transport_->IsLocal(node);
  }
  /// Charges the sender's limiter and traffic counters for one remote
  /// message of `bytes` wire bytes.
  void AccountRemote(int src, int dst, int64_t bytes,
                     const std::shared_ptr<RateLimiter>& limiter);
  /// Serializes one message and ships it via the transport.
  Status SendViaTransport(Message message, std::shared_ptr<RateLimiter> limiter);
  /// In-process delivery (local traffic, or a remote node of this process).
  Status SendDirect(Message message, std::shared_ptr<Mailbox> mailbox,
                    std::shared_ptr<RateLimiter> limiter);

  /// Remote delivery behind the injector: parks partitioned traffic, rolls
  /// the fault dice for this transmission attempt, and either schedules the
  /// message on the pump or commits it now.
  void InjectOrCommit(std::shared_ptr<Mailbox> mailbox, Message message, int attempt);
  /// Final delivery: runs the reorder buffer and pushes the released run.
  void Commit(const std::shared_ptr<Mailbox>& mailbox, Message message);
  void SchedulePumped(TimedDelivery delivery);
  void PumpLoop();

  mutable std::mutex mutex_;
  std::unordered_map<Address, std::shared_ptr<Mailbox>, AddressHash> mailboxes_;
  std::vector<std::shared_ptr<RateLimiter>> limiters_;  // per node, may be null
  std::vector<std::atomic<int64_t>> tx_bytes_;
  std::vector<std::atomic<int64_t>> tx_messages_;

  // Link accounting (set once by EnableLinkStats, then immutable pointers).
  std::atomic<bool> link_stats_enabled_{false};
  std::vector<std::unique_ptr<LinkCell>> link_cells_;  // n*n, row-major by src
  std::chrono::steady_clock::time_point link_stats_since_;

  // Delta-snapshot cursor: last-seen cumulative counters per link cell plus
  // the previous delta timestamp, guarded by its own mutex so delta takers
  // never contend with the hot RecordLinkTx path.
  mutable std::mutex link_delta_mutex_;
  std::vector<int64_t> link_delta_bytes_seen_;
  std::vector<int64_t> link_delta_messages_seen_;
  std::chrono::steady_clock::time_point link_delta_since_;

  // Frame carrier for cross-process destinations (set once by
  // AttachTransport, then immutable). The wire sequencer stamps every
  // outbound remote data message; the wire reorder buffer restores
  // exactly-once FIFO per stream on ingress (real sockets — and the lossy
  // shim especially — can duplicate and reorder records).
  std::shared_ptr<Transport> transport_;
  std::unique_ptr<StreamSequencer> wire_sequencer_;
  std::unique_ptr<FaultCounters> wire_counters_;
  std::unique_ptr<ReorderBuffer> wire_reorder_;

  // Fault fabric (set once by EnableFaultInjection, then immutable pointers).
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<StreamSequencer> sequencer_;
  std::unique_ptr<ReorderBuffer> reorder_;
  std::mutex pump_mutex_;
  std::condition_variable pump_cv_;   // wakes the pump
  std::condition_variable pump_idle_cv_;  // signals FlushFaults waiters
  std::priority_queue<TimedDelivery, std::vector<TimedDelivery>, TimedDeliveryLater>
      pump_queue_;
  std::vector<TimedDelivery> partition_held_;
  uint64_t pump_order_ = 0;
  int pump_busy_ = 0;
  bool pump_stop_ = false;
  std::thread pump_thread_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_BUS_H_
