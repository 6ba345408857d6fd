// Unit tests for the transport fault fabric: deterministic fault decisions,
// the sequencer/reorder correctness layer, and bus-level delivery under
// drops, duplicates, delays, partitions and endpoint death. The bus-level
// properties run once per backend: one in-process bus, and a pair of buses
// joined by real loopback sockets — the same injector and reorder buffer
// serve both.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/transport/bus.h"
#include "src/transport/fault_injector.h"
#include "src/transport/sequencer.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_pair.h"

namespace poseidon {
namespace {

Message MakeMessage(int src, int dst, int64_t seq = -1, int layer = 0) {
  Message m;
  m.type = MessageType::kGradPush;
  m.from = Address{src, kSyncerPortBase};
  m.to = Address{dst, kServerPort};
  m.layer = layer;
  m.worker = src;
  m.iter = 0;
  m.seq = seq;
  Payload payload = Payload::Allocate(4);
  m.chunks.push_back({0, payload.View()});
  return m;
}

TEST(FaultInjectorTest, DecisionsAreDeterministicInSeedStreamSeqAttempt) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.3;
  plan.delay_prob = 0.3;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int64_t seq = 0; seq < 200; ++seq) {
    Message m = MakeMessage(0, 1, seq);
    for (int attempt = 0; attempt < 3; ++attempt) {
      const FaultDecision da = a.Decide(m, attempt);
      const FaultDecision db = b.Decide(m, attempt);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.duplicate, db.duplicate);
      EXPECT_EQ(da.delay_us, db.delay_us);
    }
  }
  // A different seed must give a different fault pattern.
  plan.seed = 43;
  FaultInjector c(plan);
  int differing = 0;
  for (int64_t seq = 0; seq < 200; ++seq) {
    Message m = MakeMessage(0, 1, seq);
    const FaultDecision da = a.Decide(m, 0);
    const FaultDecision dc = c.Decide(m, 0);
    if (da.drop != dc.drop || da.duplicate != dc.duplicate ||
        da.delay_us != dc.delay_us) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, ZeroProbabilitiesInjectNothing) {
  FaultPlan plan;  // all probabilities zero
  FaultInjector injector(plan);
  for (int64_t seq = 0; seq < 50; ++seq) {
    const FaultDecision d = injector.Decide(MakeMessage(0, 1, seq), 0);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.delay_us, 0);
  }
}

TEST(FaultInjectorTest, RetransmitCapForcesDeliveryEventually) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // every roll says drop...
  plan.max_transmissions = 4;
  FaultInjector injector(plan);
  const Message m = MakeMessage(0, 1, 7);
  EXPECT_TRUE(injector.Decide(m, 0).drop);
  // ...but the cap forces attempt max_transmissions - 1 through.
  EXPECT_FALSE(injector.Decide(m, plan.max_transmissions - 1).drop);
}

TEST(ReorderBufferTest, RestoresSequenceOrderAndDropsDuplicates) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;

  buffer.Admit(MakeMessage(0, 1, /*seq=*/1), &out);
  EXPECT_TRUE(out.empty());  // gap: seq 0 missing
  EXPECT_EQ(buffer.buffered(), 1);

  buffer.Admit(MakeMessage(0, 1, /*seq=*/1), &out);  // duplicate of parked
  EXPECT_TRUE(out.empty());

  buffer.Admit(MakeMessage(0, 1, /*seq=*/0), &out);  // fills the gap
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 0);
  EXPECT_EQ(out[1].seq, 1);
  EXPECT_EQ(buffer.buffered(), 0);

  out.clear();
  buffer.Admit(MakeMessage(0, 1, /*seq=*/0), &out);  // duplicate of released
  EXPECT_TRUE(out.empty());

  const FaultCountersSnapshot snap = counters.Snapshot();
  EXPECT_EQ(snap.deduped, 2);
  EXPECT_EQ(snap.reordered, 1);
}

TEST(ReorderBufferTest, StreamsAreIndependent) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;
  // Stream (0 -> 1) is gapped; stream (2 -> 1) must still flow.
  buffer.Admit(MakeMessage(0, 1, /*seq=*/5), &out);
  EXPECT_TRUE(out.empty());
  buffer.Admit(MakeMessage(2, 1, /*seq=*/0), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].from.node, 2);
}

TEST(ReorderBufferTest, UnsequencedMessagesBypass) {
  FaultCounters counters;
  ReorderBuffer buffer(&counters);
  std::vector<Message> out;
  buffer.Admit(MakeMessage(0, 1, /*seq=*/-1), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(StreamSequencerTest, PerStreamMonotoneFromZero) {
  StreamSequencer sequencer;
  const Address a{0, kSyncerPortBase};
  const Address b{1, kServerPort};
  const Address c{1, kServerPort + 1};
  EXPECT_EQ(sequencer.NextSeq(a, b), 0);
  EXPECT_EQ(sequencer.NextSeq(a, b), 1);
  EXPECT_EQ(sequencer.NextSeq(a, c), 0);  // distinct stream
  EXPECT_EQ(sequencer.NextSeq(a, b), 2);
}

// ------------------------------------------------------------ bus-level ----

enum class Backend { kInProcess, kSocket };

// Node 0 sends to a mailbox on node 1, either within one bus or from one
// process's bus to the other's over a loopback socket. Settle() returns once
// every transmission sent so far — delayed copies, duplicates and
// retransmissions included — has reached the receiving bus, so each test
// can read the mailbox with TryPop and the counters without racing.
class FaultyBusTest : public ::testing::TestWithParam<Backend> {
 protected:
  void Start(const FaultPlan& plan) {
    if (GetParam() == Backend::kSocket) {
      pair_ = std::make_unique<testing::SocketBusPair>(/*unix_sockets=*/false, plan);
      sender_ = &pair_->bus(0);
      receiver_ = &pair_->bus(1);
    } else {
      bus_ = std::make_unique<MessageBus>(2);
      bus_->EnableFaultInjection(plan);
      sender_ = receiver_ = bus_.get();
    }
    mailbox_ = receiver_->Register(Address{1, kServerPort});
  }

  void Settle() {
    if (pair_ != nullptr) {
      pair_->Barrier(0, 1);
    } else {
      bus_->FlushFaults();
    }
  }

  // Weather is counted where it is injected (the sender), repair where it
  // is undone (the receiver); in process both are the same bus.
  FaultCountersSnapshot Faults() const {
    FaultCountersSnapshot snap = sender_->Faults();
    if (receiver_ != sender_) {
      const FaultCountersSnapshot in = receiver_->Faults();
      snap.deduped += in.deduped;
      snap.reordered += in.reordered;
      snap.dropped_replies += in.dropped_replies;
    }
    return snap;
  }

  MessageBus& sender() { return *sender_; }

  std::unique_ptr<MessageBus> bus_;
  std::unique_ptr<testing::SocketBusPair> pair_;
  MessageBus* sender_ = nullptr;
  MessageBus* receiver_ = nullptr;
  std::shared_ptr<MessageBus::Mailbox> mailbox_;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, FaultyBusTest,
    ::testing::Values(Backend::kInProcess, Backend::kSocket),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return info.param == Backend::kSocket ? std::string("socket")
                                            : std::string("inproc");
    });

TEST_P(FaultyBusTest, DuplicatesAreInjectedAndDeduplicated) {
  FaultPlan plan;
  plan.seed = 5;
  plan.duplicate_prob = 1.0;
  Start(plan);

  const int kMessages = 20;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(sender().Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  Settle();
  const FaultCountersSnapshot snap = Faults();
  EXPECT_EQ(snap.duplicates, kMessages);
  EXPECT_EQ(snap.deduped, kMessages);
  // Exactly one copy of each, in send order.
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox_->TryPop();
    ASSERT_TRUE(received.has_value()) << "message " << i << " missing";
    EXPECT_EQ(received->layer, i);
    EXPECT_EQ(received->seq, i);  // the bus sequenced the stream
  }
  EXPECT_FALSE(mailbox_->TryPop().has_value()) << "a duplicate leaked through";
}

TEST_P(FaultyBusTest, DropsAreRetransmittedUntilDelivered) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_prob = 0.5;
  plan.retransmit_timeout_us = 50;
  Start(plan);

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(sender().Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  Settle();
  const FaultCountersSnapshot snap = Faults();
  EXPECT_GT(snap.drops, 0);
  EXPECT_EQ(snap.retransmits, snap.drops);  // every loss was retried
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox_->TryPop();
    ASSERT_TRUE(received.has_value()) << "message " << i << " lost for good";
    EXPECT_EQ(received->layer, i) << "stream order broken";
  }
}

TEST_P(FaultyBusTest, DelayedStreamStillArrivesInOrder) {
  FaultPlan plan;
  plan.seed = 23;
  plan.delay_prob = 0.7;
  plan.delay_min_us = 10;
  plan.delay_max_us = 2000;
  Start(plan);

  const int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(sender().Send(MakeMessage(0, 1, /*seq=*/-1, /*layer=*/i)).ok());
  }
  Settle();
  EXPECT_GT(Faults().delays, 0);
  for (int i = 0; i < kMessages; ++i) {
    auto received = mailbox_->TryPop();
    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->layer, i) << "per-stream FIFO violated";
  }
}

TEST_P(FaultyBusTest, PartitionParksTrafficAndHealReplays) {
  FaultPlan plan;  // no probabilistic faults; partitions only
  Start(plan);

  sender().Partition(0, 1);
  EXPECT_TRUE(sender().Send(MakeMessage(0, 1)).ok());
  EXPECT_TRUE(sender().Send(MakeMessage(0, 1)).ok());
  Settle();
  EXPECT_FALSE(mailbox_->TryPop().has_value()) << "partitioned traffic leaked";
  EXPECT_EQ(Faults().partition_holds, 2);

  sender().HealPartitions();
  Settle();
  EXPECT_TRUE(mailbox_->TryPop().has_value());
  EXPECT_TRUE(mailbox_->TryPop().has_value());
}

TEST_P(FaultyBusTest, ShutdownBypassesTheFaultFabric) {
  FaultPlan plan;
  plan.seed = 3;
  plan.drop_prob = 0.9;
  plan.delay_prob = 0.9;
  plan.delay_max_us = 1000000;
  Start(plan);
  Message shutdown;
  shutdown.type = MessageType::kShutdown;
  shutdown.from = Address{0, kSyncerPortBase};
  shutdown.to = Address{1, kServerPort};
  EXPECT_TRUE(sender().Send(std::move(shutdown)).ok());
  // In process the push is inline: no flush needed. A socket needs its
  // egress drained, but the fault pump holds nothing to wait for.
  if (GetParam() == Backend::kSocket) {
    Settle();
  }
  auto received = mailbox_->TryPop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, MessageType::kShutdown);
  EXPECT_EQ(received->seq, -1) << "kShutdown was sequenced";
  EXPECT_EQ(Faults().TotalInjected(), 0) << "weather touched kShutdown";
}

TEST(BusEndpointTest, CloseEndpointsWakesReceiversAndAllowsReRegistration) {
  MessageBus bus(2);
  auto old_mailbox = bus.Register(Address{1, kSyncerPortBase + 3});
  bus.CloseEndpoints(1, kSyncerPortBase);
  EXPECT_FALSE(old_mailbox->Pop().has_value()) << "closed mailbox should drain";
  auto fresh = bus.Register(Address{1, kSyncerPortBase + 3});
  EXPECT_NE(fresh.get(), old_mailbox.get()) << "restart must get a fresh mailbox";
  // Shard-port mailboxes (below kSyncerPortBase) must survive a worker-side
  // close: the colocated server process did not die.
  auto shard = bus.Register(Address{1, kServerPort});
  bus.CloseEndpoints(1, kSyncerPortBase);
  EXPECT_FALSE(shard->closed());
  // ... and so must endpoints above the bound (the coordinator's monitor
  // mailbox when the dead worker shares its node).
  auto monitor = bus.Register(Address{1, kMonitorPort});
  bus.CloseEndpoints(1, kSyncerPortBase, kMonitorPort);
  EXPECT_FALSE(monitor->closed());
}

}  // namespace
}  // namespace poseidon
