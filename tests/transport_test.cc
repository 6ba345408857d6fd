// Tests for the in-process message bus and rate limiter.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/transport/bus.h"
#include "src/transport/rate_limiter.h"

namespace poseidon {
namespace {

Message MakeChunkMessage(int src, int dst, int port, int floats, int64_t iter = 0) {
  Message m;
  m.type = MessageType::kGradPush;
  m.from = Address{src, kSyncerPortBase};
  m.to = Address{dst, port};
  m.layer = 0;
  m.worker = src;
  m.iter = iter;
  m.codec = WireCodec::kRawFloat;
  Payload payload = Payload::Allocate(floats);
  for (int64_t i = 0; i < payload.size(); ++i) {
    payload.data()[i] = 1.0f;
  }
  m.chunks.push_back({0, payload.View()});
  return m;
}

TEST(PayloadTest, AllocatedSlabsAre64ByteAligned) {
  // The SIMD wire kernels (src/simd) stream 8-lane blocks out of payload
  // slabs; Payload::kAlignment guarantees block 0 never straddles a cache
  // line. Odd sizes must not disturb the base alignment.
  for (int64_t floats : {1, 7, 8, 9, 31, 32, 33, 1000, 4096}) {
    Payload payload = Payload::Allocate(floats);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(payload.data()) %
                  static_cast<uintptr_t>(Payload::kAlignment),
              0u)
        << "slab of " << floats << " floats is misaligned";
  }
}

TEST(PayloadTest, FromVectorSlabsAre64ByteAligned) {
  std::vector<float> values(37, 1.5f);
  Payload payload = Payload::FromVector(values);
  ASSERT_EQ(payload.size(), 37);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(payload.data()) %
                static_cast<uintptr_t>(Payload::kAlignment),
            0u);
  for (int64_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(payload.data()[i], 1.5f);
  }
}

TEST(BusTest, DeliversToRegisteredMailbox) {
  MessageBus bus(2);
  auto mailbox = bus.Register(Address{1, kServerPort});
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 4)).ok());
  auto received = mailbox->Pop();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->worker, 0);
  EXPECT_EQ(received->chunks[0].view.size(), 4);
}

TEST(BusTest, UnknownDestinationIsNotFound) {
  MessageBus bus(2);
  const Status status = bus.Send(MakeChunkMessage(0, 1, 999, 4));
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(BusTest, TrafficAccountingSkipsLocal) {
  MessageBus bus(2);
  bus.Register(Address{0, kServerPort});
  bus.Register(Address{1, kServerPort});
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 0, kServerPort, 100)).ok());  // local
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100)).ok());  // remote
  EXPECT_EQ(bus.TxBytes(1), 0);
  const int64_t remote = bus.TxBytes(0);
  EXPECT_GT(remote, 400);  // 100 floats + headers
  EXPECT_EQ(bus.TxMessages(0), 1);
  bus.ResetTraffic();
  EXPECT_EQ(bus.TxBytes(0), 0);
  EXPECT_EQ(bus.TxMessages(0), 0);
}

TEST(BusTest, RegisterIsIdempotent) {
  MessageBus bus(1);
  auto a = bus.Register(Address{0, 5});
  auto b = bus.Register(Address{0, 5});
  EXPECT_EQ(a.get(), b.get());
}

TEST(BusTest, CloseAllWakesReceivers) {
  MessageBus bus(1);
  auto mailbox = bus.Register(Address{0, kServerPort});
  std::thread waiter([&] { EXPECT_FALSE(mailbox->Pop().has_value()); });
  bus.CloseAll();
  waiter.join();
}

TEST(BusTest, SharedPayloadNotCopiedPerReceiver) {
  MessageBus bus(3);
  auto m1 = bus.Register(Address{1, kServerPort});
  auto m2 = bus.Register(Address{2, kServerPort});
  Message base = MakeChunkMessage(0, 1, kServerPort, 8);
  Message copy = base;
  copy.to = Address{2, kServerPort};
  EXPECT_TRUE(bus.Send(base).ok());
  EXPECT_TRUE(bus.Send(copy).ok());
  auto r1 = m1->Pop();
  auto r2 = m2->Pop();
  // Both receivers' views alias the same slab: a broadcast is zero-copy.
  EXPECT_EQ(r1->chunks[0].view.slab_id(), r2->chunks[0].view.slab_id());
}

TEST(MessageTest, WireBytesCountsPayloads) {
  Message m = MakeChunkMessage(0, 1, kServerPort, 100);
  EXPECT_GE(m.WireBytes(), 400);
  EXPECT_LT(m.WireBytes(), 500);
  EXPECT_EQ(m.WireBytes(), kWireFrameBytes + kWireChunkHeaderBytes + 100 * 4);
}

TEST(RateLimiterTest, ThrottlesToConfiguredRate) {
  RateLimiter limiter(1e6, /*burst_bytes=*/1e4);  // 1 MB/s
  const auto start = std::chrono::steady_clock::now();
  limiter.Acquire(50000);  // ~50 ms at 1 MB/s (minus the initial burst)
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(elapsed, 0.025);
  EXPECT_LT(elapsed, 0.5);
}

TEST(RateLimiterTest, SmallSendsWithinBurstAreFree) {
  RateLimiter limiter(1e6, /*burst_bytes=*/1e5);
  const auto start = std::chrono::steady_clock::now();
  limiter.Acquire(1000);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.01);
}

TEST(BusTest, EgressLimitSlowsRemoteSends) {
  MessageBus bus(2);
  bus.Register(Address{1, kServerPort});
  bus.SetEgressLimit(0, 1e6);  // 1 MB/s
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100000)).ok());  // ~400 KB
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_GT(elapsed, 0.1);
}

// Regression: one node's blocked egress (rate limiter wait) must not stall
// sends from other nodes — the limiter wait may not hold the bus-wide lock.
TEST(BusTest, ThrottledSenderDoesNotBlockOtherNodes) {
  MessageBus bus(3);
  bus.Register(Address{2, kServerPort});
  bus.SetEgressLimit(0, 1e6);  // ~0.8 s for the big message below

  std::thread throttled([&] {
    // ~800 KB through a 1 MB/s limiter: blocks well past the probe below.
    EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 2, kServerPort, 200000)).ok());
  });
  // Wait (condition variable, not a sleep) until the throttled sender is
  // actually inside its limiter wait.
  ASSERT_TRUE(bus.egress_limiter(0)->WaitUntilBlocked(1));

  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(bus.Send(MakeChunkMessage(1, 2, kServerPort, 100)).ok());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(elapsed, 0.5) << "node 1's send stalled behind node 0's throttled egress";
  throttled.join();
}

// SetEgressLimit while a send is waiting on the old limiter must be safe
// (limiters are shared_ptr snapshots, not raw pointers into the bus).
TEST(BusTest, ResetLimitDuringBlockedSendIsSafe) {
  MessageBus bus(2);
  bus.Register(Address{1, kServerPort});
  bus.SetEgressLimit(0, 2e5);
  // Snapshot the limiter before dropping it so the wait below has something
  // to observe (the bus forgets it on reset, by design).
  auto limiter = bus.egress_limiter(0);
  std::thread sender([&] {
    EXPECT_TRUE(bus.Send(MakeChunkMessage(0, 1, kServerPort, 100000)).ok());
  });
  ASSERT_TRUE(limiter->WaitUntilBlocked(1));
  bus.SetEgressLimit(0, 0.0);  // drop the limiter under the blocked sender
  sender.join();
}

}  // namespace
}  // namespace poseidon
