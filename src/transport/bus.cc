#include "src/transport/bus.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/transport/wire_format.h"

namespace poseidon {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MessageBus::MessageBus(int num_nodes)
    : limiters_(static_cast<size_t>(num_nodes)),
      tx_bytes_(static_cast<size_t>(num_nodes)),
      tx_messages_(static_cast<size_t>(num_nodes)) {
  CHECK_GT(num_nodes, 0);
  for (size_t n = 0; n < tx_bytes_.size(); ++n) {
    tx_bytes_[n].store(0);
    tx_messages_[n].store(0);
  }
}

MessageBus::~MessageBus() {
  if (pump_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(pump_mutex_);
      pump_stop_ = true;
    }
    pump_cv_.notify_all();
    pump_thread_.join();
  }
}

std::shared_ptr<MessageBus::Mailbox> MessageBus::Register(const Address& address) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = mailboxes_.try_emplace(address, nullptr);
  if (inserted) {
    it->second = std::make_shared<Mailbox>();
  }
  return it->second;
}

Status MessageBus::Route(const Message& message, std::shared_ptr<Mailbox>* mailbox,
                         std::shared_ptr<RateLimiter>* limiter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = mailboxes_.find(message.to);
  if (it == mailboxes_.end()) {
    return NotFoundError("no mailbox at node " + std::to_string(message.to.node) +
                         " port " + std::to_string(message.to.port));
  }
  *mailbox = it->second;
  // shared_ptr copy: a concurrent SetEgressLimit cannot invalidate the
  // limiter while a sender waits on it, and the wait itself runs with no bus
  // lock held.
  *limiter = limiters_[static_cast<size_t>(message.from.node)];
  return Status::Ok();
}

void MessageBus::AccountRemote(int src, int dst, int64_t bytes,
                               const std::shared_ptr<RateLimiter>& limiter) {
  if (limiter != nullptr) {
    limiter->Acquire(bytes);
  }
  tx_bytes_[static_cast<size_t>(src)].fetch_add(bytes, std::memory_order_relaxed);
  tx_messages_[static_cast<size_t>(src)].fetch_add(1, std::memory_order_relaxed);
  RecordLinkTx(src, dst, bytes);
}

Status MessageBus::Send(Message message) {
  const int src = message.from.node;
  const int dst = message.to.node;
  CHECK_GE(src, 0);
  CHECK_LT(src, num_nodes());

  // A wire-remote destination's mailboxes live in another process: no local
  // routing, the frame goes to the transport at commit instead.
  const bool wire = IsWireRemote(dst);
  std::shared_ptr<Mailbox> mailbox;
  std::shared_ptr<RateLimiter> limiter;
  if (wire) {
    CHECK(transport_->IsLocal(src))
        << "node " << src << " is not hosted by this process";
    limiter = egress_limiter(src);
  } else {
    const Status routed = Route(message, &mailbox, &limiter);
    if (!routed.ok()) {
      return routed;
    }
  }
  if (dst != src) {  // local traffic bypasses the NIC and the fault fabric
    const bool data = message.type != MessageType::kShutdown;
    // Sequence every remote data message a wire or the injector can
    // reorder: the stream order fixed here is the order the receiver's
    // reorder buffer will restore, whatever happens to the individual
    // transmissions in between.
    if (data && (wire || injector_ != nullptr)) {
      message.seq = sequencer_.NextSeq(message.from, message.to);
    }
    // Stamp in-process remote messages at bus accept so RecordLinkDelivery()
    // can report end-to-end delivery latency including injected fault
    // delays. A wire message is restamped on the receiver's clock instead
    // (DeliverWire): two processes' steady clocks are unrelated.
    if (!wire && link_stats_enabled()) {
      message.send_ns = SteadyNowNs();
    }
    AccountRemote(src, dst, message.WireBytes(), limiter);
    if (data && injector_ != nullptr) {
      InjectOrCommit(std::move(message), /*attempt=*/0);
      return Status::Ok();  // the link layer retransmits; delivery is eventual
    }
    if (wire) {
      return transport_->SendFrame(src, dst, EncodeMessageFrame(message));
    }
    RecordLinkDelivery(message);
  }
  if (!mailbox->Push(std::move(message))) {
    return UnavailableError("mailbox closed");
  }
  return Status::Ok();
}

// ---------------------------------------------------------- transport seam --

void MessageBus::AttachTransport(std::shared_ptr<Transport> transport) {
  CHECK(transport != nullptr);
  CHECK(transport_ == nullptr) << "transport already attached";
  transport_ = std::move(transport);
}

Status MessageBus::DeliverWire(const uint8_t* data, int64_t size) {
  CHECK(transport_ != nullptr) << "DeliverWire requires AttachTransport";
  Message message;
  Status status = DecodeWireFrame(data, size, &message);
  if (!status.ok()) {
    return status;
  }
  const int src = message.from.node;
  const int dst = message.to.node;
  if (src < 0 || src >= num_nodes() || dst < 0 || dst >= num_nodes()) {
    return InvalidArgumentError("wire frame addressed outside this cluster: " +
                                std::to_string(src) + " -> " +
                                std::to_string(dst));
  }
  // Ingress-side link accounting: the sending bus records links whose source
  // it hosts, this bus records links arriving from remote sources — one bus
  // never counts a (src, dst) pair from both sides.
  RecordLinkTx(src, dst, size);
  // Receiver-side restamp: delivery latency is measured ingress-to-push on
  // this process's steady clock. Two processes' steady clocks have unrelated
  // epochs, so the sender's stamp must never be compared here.
  message.send_ns = link_stats_enabled() ? SteadyNowNs() : 0;
  Deliver(std::move(message));
  return Status::Ok();
}

// ------------------------------------------------------------ fault fabric --

void MessageBus::EnableFaultInjection(const FaultPlan& plan) {
  CHECK(injector_ == nullptr) << "fault injection already enabled";
  injector_ = std::make_unique<FaultInjector>(plan);
  pump_thread_ = std::thread([this] { PumpLoop(); });
}

void MessageBus::InjectOrCommit(Message message, int attempt) {
  if (injector_->IsPartitioned(message.from.node, message.to.node)) {
    faults_.AddPartitionHold();
    TimedDelivery held;
    held.message = std::move(message);
    held.attempt = attempt;
    {
      std::lock_guard<std::mutex> lock(pump_mutex_);
      partition_held_.push_back(std::move(held));
    }
    pump_cv_.notify_all();  // arms the periodic partition recheck
    return;
  }
  const FaultDecision decision = injector_->Decide(message, attempt);
  const auto now = std::chrono::steady_clock::now();
  if (decision.drop) {
    // Lost on the wire; the modeled reliable link layer retransmits the
    // same sequence number after the RTO, rolling fresh dice.
    faults_.AddDrop();
    TimedDelivery retx;
    retx.due = now + std::chrono::microseconds(injector_->plan().retransmit_timeout_us);
    retx.message = std::move(message);
    retx.attempt = attempt + 1;
    retx.commit_only = false;
    SchedulePumped(std::move(retx));
    return;
  }
  if (decision.duplicate) {
    faults_.AddDuplicate();
    TimedDelivery copy;
    copy.due = now + std::chrono::microseconds(injector_->plan().duplicate_lag_us);
    copy.message = message;  // same seq: the receiver will deduplicate
    copy.attempt = attempt;
    copy.commit_only = true;
    SchedulePumped(std::move(copy));
  }
  if (decision.delay_us > 0) {
    faults_.AddDelay();
    TimedDelivery delayed;
    delayed.due = now + std::chrono::microseconds(decision.delay_us);
    delayed.message = std::move(message);
    delayed.attempt = attempt;
    delayed.commit_only = true;
    SchedulePumped(std::move(delayed));
    return;
  }
  Commit(std::move(message));
}

void MessageBus::Commit(Message message) {
  if (IsWireRemote(message.to.node)) {
    // The receiving bus deduplicates and reorders (DeliverWire). A send
    // into a dead connection loses the message as a dead endpoint would.
    const int src = message.from.node;
    const int dst = message.to.node;
    if (!transport_->SendFrame(src, dst, EncodeMessageFrame(message)).ok()) {
      faults_.AddDroppedReply();
    }
    return;
  }
  Deliver(std::move(message));
}

void MessageBus::Deliver(Message message) {
  std::vector<Message> released;
  reorder_.Admit(std::move(message), &released);
  if (released.empty()) {
    return;
  }
  // Deliver to the destination's *current* mailbox, looked up at release
  // time: between send (or parking in the reorder buffer) and now the
  // endpoint may have died and been re-registered (crash recovery), and a
  // mailbox captured at send time could belong to the dead incarnation.
  // Every message of a released run shares one stream, hence one address.
  std::shared_ptr<Mailbox> target;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = mailboxes_.find(released.front().to);
    if (it != mailboxes_.end()) {
      target = it->second;
    }
  }
  for (Message& ready : released) {
    const MessageType type = ready.type;
    if (target != nullptr) {
      RecordLinkDelivery(ready);
    }
    if ((target == nullptr || !target->Push(std::move(ready))) &&
        type != MessageType::kShutdown) {
      // The endpoint died between send and delivery (crash window), or was
      // never registered here: the message is lost, as it would be on a
      // real dead socket. Recovery re-pushes; the shard reconciles.
      faults_.AddDroppedReply();
    }
  }
}

void MessageBus::SchedulePumped(TimedDelivery delivery) {
  {
    std::lock_guard<std::mutex> lock(pump_mutex_);
    delivery.order = pump_order_++;
    pump_queue_.push(std::move(delivery));
  }
  pump_cv_.notify_all();
}

void MessageBus::PumpLoop() {
  constexpr auto kPartitionRecheck = std::chrono::microseconds(200);
  std::unique_lock<std::mutex> lock(pump_mutex_);
  while (true) {
    if (pump_stop_) {
      break;
    }
    if (pump_queue_.empty()) {
      pump_idle_cv_.notify_all();  // FlushFaults waiters (held traffic excluded)
    }
    if (pump_queue_.empty() && partition_held_.empty()) {
      pump_cv_.wait(lock, [&] {
        return pump_stop_ || !pump_queue_.empty() || !partition_held_.empty();
      });
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    // Replay parked traffic whose partition healed (in park order; the
    // reorder buffer fixes any residual interleaving).
    std::vector<TimedDelivery> replay;
    for (size_t i = 0; i < partition_held_.size();) {
      TimedDelivery& held = partition_held_[i];
      if (!injector_->IsPartitioned(held.message.from.node, held.message.to.node)) {
        replay.push_back(std::move(held));
        partition_held_.erase(partition_held_.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    if (!pump_queue_.empty() && pump_queue_.top().due <= now) {
      TimedDelivery due = pump_queue_.top();
      pump_queue_.pop();
      replay.push_back(std::move(due));
    }
    if (replay.empty()) {
      // Nothing due: sleep until the next deadline (or the partition
      // recheck tick while anything is parked).
      auto wake = now + std::chrono::hours(24);
      if (!pump_queue_.empty()) {
        wake = std::min(wake, pump_queue_.top().due);
      }
      if (!partition_held_.empty()) {
        wake = std::min(wake, now + kPartitionRecheck);
      }
      pump_cv_.wait_until(lock, wake, [&] {
        // Also wake early when a fresher item undercuts the deadline.
        return pump_stop_ || (!pump_queue_.empty() && pump_queue_.top().due < wake);
      });
      continue;
    }
    ++pump_busy_;
    lock.unlock();
    for (TimedDelivery& item : replay) {
      if (item.commit_only) {
        Commit(std::move(item.message));
      } else {
        if (item.attempt > 0) {
          faults_.AddRetransmit();
        }
        InjectOrCommit(std::move(item.message), item.attempt);
      }
    }
    lock.lock();
    --pump_busy_;
  }
}

void MessageBus::FlushFaults() {
  if (injector_ == nullptr) {
    return;
  }
  std::unique_lock<std::mutex> lock(pump_mutex_);
  pump_cv_.notify_all();
  pump_idle_cv_.wait(lock, [&] {
    if (pump_stop_) {
      return true;
    }
    if (!pump_queue_.empty() || pump_busy_ > 0) {
      return false;
    }
    // Held traffic only blocks the flush while its partition has healed but
    // the pump has not replayed it yet; traffic behind a live partition is
    // excluded by contract.
    for (const TimedDelivery& held : partition_held_) {
      if (!injector_->IsPartitioned(held.message.from.node, held.message.to.node)) {
        return false;
      }
    }
    return true;
  });
}

void MessageBus::Partition(int a, int b) {
  CHECK(injector_ != nullptr) << "Partition requires EnableFaultInjection";
  injector_->Partition(a, b);
}

void MessageBus::HealPartitions() {
  CHECK(injector_ != nullptr) << "HealPartitions requires EnableFaultInjection";
  injector_->HealAll();
  pump_cv_.notify_all();
}

bool MessageBus::AwaitPartitionHolds(int64_t n, int timeout_ms) {
  if (injector_ == nullptr) {
    return false;
  }
  std::unique_lock<std::mutex> lock(pump_mutex_);
  // InjectOrCommit bumps the counter before notifying the pump, so the
  // predicate observes every hold.
  return pump_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return faults_.Snapshot().partition_holds >= n;
  });
}

void MessageBus::CloseEndpoints(int node, int min_port, int max_port) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = mailboxes_.begin(); it != mailboxes_.end();) {
    if (it->first.node == node && it->first.port >= min_port &&
        it->first.port < max_port) {
      it->second->Close();
      it = mailboxes_.erase(it);
    } else {
      ++it;
    }
  }
}

void MessageBus::FlushEgress() {
  FlushFaults();  // pumped traffic reaches the transport before its flush
  if (transport_ != nullptr) {
    transport_->Flush();
  }
}

void MessageBus::SetEgressLimit(int node, double bytes_per_sec) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  if (bytes_per_sec <= 0.0) {
    limiters_[static_cast<size_t>(node)].reset();
  } else {
    limiters_[static_cast<size_t>(node)] = std::make_shared<RateLimiter>(bytes_per_sec);
  }
}

std::shared_ptr<RateLimiter> MessageBus::egress_limiter(int node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return limiters_[static_cast<size_t>(node)];
}

void MessageBus::EnableLinkStats() {
  if (link_stats_enabled()) {
    return;
  }
  const size_t n = static_cast<size_t>(num_nodes());
  link_cells_.resize(n * n);
  for (auto& cell : link_cells_) {
    cell = std::make_unique<LinkCell>();
  }
  link_stats_since_ = std::chrono::steady_clock::now();
  link_delta_bytes_seen_.assign(n * n, 0);
  link_delta_messages_seen_.assign(n * n, 0);
  link_delta_since_ = link_stats_since_;
  link_stats_enabled_.store(true, std::memory_order_release);
}

void MessageBus::RecordLinkTx(int src, int dst, int64_t bytes) {
  if (!link_stats_enabled()) {
    return;
  }
  LinkCell& cell = *link_cells_[static_cast<size_t>(src) *
                                    static_cast<size_t>(num_nodes()) +
                                static_cast<size_t>(dst)];
  cell.bytes.fetch_add(bytes, std::memory_order_relaxed);
  cell.messages.fetch_add(1, std::memory_order_relaxed);
}

void MessageBus::RecordLinkDelivery(const Message& message) {
  if (!link_stats_enabled() || message.send_ns <= 0 ||
      message.from.node == message.to.node) {
    return;
  }
  const int64_t latency = SteadyNowNs() - message.send_ns;
  LinkCell& cell = *link_cells_[static_cast<size_t>(message.from.node) *
                                    static_cast<size_t>(num_nodes()) +
                                static_cast<size_t>(message.to.node)];
  cell.latency_ns.Record(latency > 0 ? latency : 0);
}

ObservedLinkStats MessageBus::CollectLinkStats(
    double window_s, std::vector<int64_t>* bytes_seen,
    std::vector<int64_t>* messages_seen) const {
  ObservedLinkStats snap;
  snap.window_s = window_s;
  const size_t n = static_cast<size_t>(num_nodes());
  for (size_t idx = 0; idx < link_cells_.size(); ++idx) {
    const LinkCell& cell = *link_cells_[idx];
    int64_t bytes = cell.bytes.load(std::memory_order_relaxed);
    int64_t messages = cell.messages.load(std::memory_order_relaxed);
    if (bytes_seen != nullptr) {
      bytes -= (*bytes_seen)[idx];
      messages -= (*messages_seen)[idx];
      (*bytes_seen)[idx] += bytes;
      (*messages_seen)[idx] += messages;
    }
    if (bytes == 0 && messages == 0) {
      continue;
    }
    LinkStat link;
    link.src = static_cast<int>(idx / n);
    link.dst = static_cast<int>(idx % n);
    link.bytes = bytes;
    link.messages = messages;
    link.delivery_latency_ns = cell.latency_ns.TakeSnapshot();
    link.observed_gbps =
        window_s > 0.0 ? static_cast<double>(bytes) * 8.0 / 1e9 / window_s : 0.0;
    snap.links.push_back(std::move(link));
  }
  return snap;
}

ObservedLinkStats MessageBus::SnapshotLinkStats() const {
  if (!link_stats_enabled()) {
    return ObservedLinkStats{};
  }
  const double window_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - link_stats_since_)
          .count();
  return CollectLinkStats(window_s, nullptr, nullptr);
}

ObservedLinkStats MessageBus::SnapshotLinkStatsDelta() {
  if (!link_stats_enabled()) {
    return ObservedLinkStats{};
  }
  std::lock_guard<std::mutex> lock(link_delta_mutex_);
  const auto now = std::chrono::steady_clock::now();
  const double window_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(now -
                                                                link_delta_since_)
          .count();
  link_delta_since_ = now;
  return CollectLinkStats(window_s, &link_delta_bytes_seen_,
                          &link_delta_messages_seen_);
}

std::vector<int64_t> MessageBus::TxBytes() const {
  std::vector<int64_t> out(tx_bytes_.size());
  for (size_t i = 0; i < tx_bytes_.size(); ++i) {
    out[i] = tx_bytes_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t MessageBus::TxBytes(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return tx_bytes_[static_cast<size_t>(node)].load(std::memory_order_relaxed);
}

std::vector<int64_t> MessageBus::TxMessages() const {
  std::vector<int64_t> out(tx_messages_.size());
  for (size_t i = 0; i < tx_messages_.size(); ++i) {
    out[i] = tx_messages_[i].load(std::memory_order_relaxed);
  }
  return out;
}

int64_t MessageBus::TxMessages(int node) const {
  CHECK_GE(node, 0);
  CHECK_LT(node, num_nodes());
  return tx_messages_[static_cast<size_t>(node)].load(std::memory_order_relaxed);
}

void MessageBus::ResetTraffic() {
  for (size_t n = 0; n < tx_bytes_.size(); ++n) {
    tx_bytes_[n].store(0, std::memory_order_relaxed);
    tx_messages_[n].store(0, std::memory_order_relaxed);
  }
}

void MessageBus::CloseAll() {
  FlushEgress();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [address, mailbox] : mailboxes_) {
    mailbox->Close();
  }
}

}  // namespace poseidon
