// The socket transport, tested at two levels in one process:
//
//  1. Transport-level pairs (tests/testing/socket_pair.h): two MessageBus +
//     SocketTransport instances over real loopback TCP / Unix sockets —
//     control records, data-path field and payload fidelity, receiver-side
//     send_ns restamping, record counters, Flush semantics, and the
//     sequencer properties (dedup, in-order release, retransmit-on-drop)
//     under the bus fault fabric's weather on a real socket.
//
//  2. Cluster-level conformance: a full worker/server/shard cluster whose
//     members run as threads but talk exclusively over sockets
//     (tests/testing/socket_cluster.h) must follow a bitwise-identical
//     parameter trajectory to the in-process CaptureTrajectory oracle, for
//     BSP and for sharded SSP s=0, clean and under socket weather.
//
// True fork/exec clusters are covered by tests/multiprocess_trajectory_test.cc
// through tools/poseidon_launch.
#include "src/transport/socket_transport.h"

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/wire_format.h"
#include "tests/testing/harness.h"
#include "tests/testing/socket_cluster.h"
#include "tests/testing/socket_pair.h"

namespace poseidon {
namespace {

using testing::CaptureTrajectory;
using testing::ControlEvent;
using testing::RunSocketCluster;
using testing::SeedTrace;
using testing::SmallTrainerOptions;
using testing::SocketBusPair;
using testing::SocketClusterOptions;
using testing::SocketClusterRun;
using testing::Trajectory;

// A deterministic raw-float data message, node 0 -> node 1.
Message MakeDataMessage(int64_t iter) {
  Message m;
  m.type = MessageType::kGradPush;
  m.codec = WireCodec::kRawFloat;
  m.from = Address{0, kSyncerPortBase + 1};
  m.to = Address{1, kServerPort};
  m.layer = 1;
  m.worker = 0;
  m.iter = iter;
  std::vector<float> values;
  for (int i = 0; i < 5; ++i) {
    values.push_back(static_cast<float>(iter) + static_cast<float>(i) * 0.5f);
  }
  Payload slab = RawFloatCodec::Encode(values.data(),
                                       static_cast<int64_t>(values.size()));
  m.chunks.push_back(WireChunk{iter * 8, slab.View()});
  return m;
}

// --------------------------------------------------- transport-level tests --

TEST(SocketTransportTest, ControlRecordsIncludingSelfDelivery) {
  SocketBusPair pair(/*unix_sockets=*/false);
  ASSERT_TRUE(pair.transport(0).SendControl(1, 41, {1, 2, 3}).ok());
  ASSERT_TRUE(pair.transport(1).SendControl(0, 42).ok());
  // To self: delivered inline, no socket round trip.
  ASSERT_TRUE(pair.transport(0).SendControl(0, 43, {9}).ok());

  ASSERT_TRUE(pair.AwaitControl(1, 1));
  ASSERT_TRUE(pair.AwaitControl(0, 2));
  const auto at1 = pair.control(1);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0].src, 0);
  EXPECT_EQ(at1[0].opcode, 41);
  EXPECT_EQ(at1[0].body, (std::vector<uint8_t>{1, 2, 3}));
  for (const ControlEvent& event : pair.control(0)) {
    if (event.opcode == 42) {
      EXPECT_EQ(event.src, 1);
      EXPECT_TRUE(event.body.empty());
    } else {
      EXPECT_EQ(event.opcode, 43);
      EXPECT_EQ(event.src, 0);
      EXPECT_EQ(event.body, std::vector<uint8_t>{9});
    }
  }
}

TEST(SocketTransportTest, DataPathPreservesEveryFieldAndPayloadBit) {
  SocketBusPair pair(/*unix_sockets=*/false);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  const Message sent = MakeDataMessage(3);
  ASSERT_TRUE(pair.bus(0).Send(sent).ok());

  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(static_cast<int>(got->type), static_cast<int>(sent.type));
  EXPECT_EQ(static_cast<int>(got->codec), static_cast<int>(sent.codec));
  EXPECT_TRUE(got->from == sent.from);
  EXPECT_TRUE(got->to == sent.to);
  EXPECT_EQ(got->layer, sent.layer);
  EXPECT_EQ(got->worker, sent.worker);
  EXPECT_EQ(got->iter, sent.iter);
  EXPECT_EQ(got->step, sent.step);
  EXPECT_EQ(got->seq, 0) << "first message of the stream";
  ASSERT_EQ(got->chunks.size(), sent.chunks.size());
  EXPECT_EQ(got->chunks[0].offset, sent.chunks[0].offset);
  ASSERT_EQ(got->chunks[0].view.size(), sent.chunks[0].view.size());
  EXPECT_EQ(std::memcmp(got->chunks[0].view.data(), sent.chunks[0].view.data(),
                        static_cast<size_t>(sent.chunks[0].view.size()) * 4),
            0);
  // Without receiver-side link stats the stamp stays zero: a sender stamp
  // must never leak across (steady clocks of two processes are unrelated).
  EXPECT_EQ(got->send_ns, 0);

  EXPECT_GE(pair.transport(0).records_sent(), 1);
  EXPECT_GE(pair.transport(1).records_received(), 1);
  EXPECT_GE(pair.transport(0).bytes_sent(),
            sent.WireBytes() + kSocketRecordHeaderBytes);
  EXPECT_EQ(pair.transport(1).bytes_received(), pair.transport(0).bytes_sent());
}

TEST(SocketTransportTest, SendNsIsRestampedOnTheReceiversClock) {
  SocketBusPair pair(/*unix_sockets=*/false);
  pair.bus(1).EnableLinkStats();
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(0)).ok());
  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(got->send_ns, 0)
      << "ingress must restamp so latency is measured on one clock";
}

TEST(SocketTransportTest, UnixSocketsCarryTheSameFrames) {
  SocketBusPair pair(/*unix_sockets=*/true);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  for (int64_t iter = 0; iter < 4; ++iter) {
    ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(iter)).ok());
  }
  for (int64_t iter = 0; iter < 4; ++iter) {
    std::optional<Message> got = mailbox->Pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->iter, iter) << "per-stream FIFO over AF_UNIX";
    EXPECT_EQ(got->seq, iter);
  }
}

TEST(SocketTransportTest, ShutdownRidesUnsequenced) {
  SocketBusPair pair(/*unix_sockets=*/false);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});
  Message m = MakeDataMessage(0);
  m.type = MessageType::kShutdown;
  m.chunks.clear();
  ASSERT_TRUE(pair.bus(0).Send(m).ok());
  std::optional<Message> got = mailbox->Pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(static_cast<int>(got->type),
            static_cast<int>(MessageType::kShutdown));
  EXPECT_EQ(got->seq, -1) << "kShutdown is exempt from wire sequencing";
}

TEST(SocketTransportTest, LossySocketsDeliverExactlyOnceInOrder) {
  // Real socket chaos: the sending bus's fault fabric drops (with
  // retransmit), duplicates and delays frames on their way to the socket.
  // The receiving bus's reorder buffer must hand the consumer every message
  // exactly once, in stream order — the sequencer properties over genuine
  // socket weather.
  constexpr int kMessages = 300;
  FaultPlan faults;
  faults.seed = 7;
  faults.drop_prob = 0.15;
  faults.duplicate_prob = 0.10;
  faults.delay_prob = 0.20;
  SocketBusPair pair(/*unix_sockets=*/false, faults);
  auto mailbox = pair.bus(1).Register(Address{1, kServerPort});

  for (int64_t iter = 0; iter < kMessages; ++iter) {
    ASSERT_TRUE(pair.bus(0).Send(MakeDataMessage(iter)).ok());
  }
  for (int64_t iter = 0; iter < kMessages; ++iter) {
    std::optional<Message> got = mailbox->Pop();
    ASSERT_TRUE(got.has_value()) << "lost message " << iter;
    EXPECT_EQ(got->iter, iter) << "released out of order";
    EXPECT_EQ(got->seq, iter);
    ASSERT_EQ(got->chunks.size(), 1u);
    const Message want = MakeDataMessage(iter);
    ASSERT_EQ(got->chunks[0].view.size(), want.chunks[0].view.size());
    EXPECT_EQ(std::memcmp(got->chunks[0].view.data(),
                          want.chunks[0].view.data(),
                          static_cast<size_t>(want.chunks[0].view.size()) * 4),
              0);
  }
  // Counter assertions only after a stream barrier: late duplicates and
  // retransmitted copies must have been processed by the receiver first.
  pair.Barrier(0, 1);

  const FaultCountersSnapshot injected = pair.bus(0).Faults();
  EXPECT_GT(injected.drops, 0) << "nothing was dropped — test is vacuous";
  EXPECT_GE(injected.retransmits, injected.drops)
      << "every dropped frame must be retransmitted";
  EXPECT_GT(injected.duplicates, 0);
  EXPECT_GT(injected.delays, 0);
  const FaultCountersSnapshot repaired = pair.bus(1).Faults();
  EXPECT_GT(repaired.deduped, 0)
      << "duplicated frames must be swallowed by the reorder buffer";
  EXPECT_FALSE(mailbox->TryPop().has_value()) << "a duplicate leaked through";
}

TEST(SocketTransportTest, DeliverWireRejectsGarbageWithAStatus) {
  // The bus half of ingress: bytes that are not a valid frame come back as
  // a Status (the transport then decides what a rejection means).
  SocketBusPair pair(/*unix_sockets=*/false);
  const std::vector<uint8_t> garbage(48, 0xEE);
  EXPECT_FALSE(
      pair.bus(1)
          .DeliverWire(garbage.data(), static_cast<int64_t>(garbage.size()))
          .ok());
}

// Ships `frame` from process 0 to process 1 as a raw data record and waits
// for process 1's poll thread to handle it.
void ShipRawFrame(std::vector<uint8_t> frame) {
  SocketBusPair pair(/*unix_sockets=*/false);
  pair.bus(1).Register(Address{1, kServerPort});
  ASSERT_TRUE(pair.transport(0).SendFrame(0, 1, std::move(frame)).ok());
  pair.Barrier(0, 1);
}

// A frame the receiving bus rejects carries a message some peer is blocked
// on. Dropping it would hang that peer forever, so the receiver must fail
// the run, naming the decode error.
TEST(SocketTransportDeathTest, RejectedDataRecordFailsTheRun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<uint8_t> batch_type = EncodeMessageFrame(MakeDataMessage(0));
  batch_type[0] = 0xFF;  // the type byte of the removed batch frame
  EXPECT_DEATH(ShipRawFrame(batch_type),
               "rejected data record from process 0: .*unknown message type 255");
  std::vector<uint8_t> bad_codec = EncodeMessageFrame(MakeDataMessage(0));
  bad_codec[1] = 0x7;  // one past the last WireCodec id
  EXPECT_DEATH(ShipRawFrame(bad_codec),
               "rejected data record from process 0: .*unknown codec 7");
}

// ---------------------------------------------- cluster-level conformance --

// Exact-trajectory comparison with a payload that explains the divergence.
void ExpectSameTrajectory(const Trajectory& got, const Trajectory& want) {
  ASSERT_EQ(got.mean_losses.size(), want.mean_losses.size());
  for (size_t i = 0; i < want.mean_losses.size(); ++i) {
    EXPECT_EQ(got.mean_losses[i], want.mean_losses[i])
        << "mean loss diverged at iteration " << i;
  }
  ASSERT_EQ(got.final_params.size(), want.final_params.size());
  int mismatches = 0;
  for (size_t i = 0; i < want.final_params.size(); ++i) {
    if (std::memcmp(&got.final_params[i], &want.final_params[i], 4) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0) << "final parameters differ in " << mismatches
                           << " of " << want.final_params.size() << " floats";
}

Trajectory Oracle(const SocketClusterOptions& options) {
  TrainerOptions trainer = SmallTrainerOptions(options.workers, options.servers,
                                               options.shards, options.staleness,
                                               options.policy);
  trainer.ps_compression = options.compression;
  trainer.compression_min_floats = 1;
  return CaptureTrajectory(trainer, options.iterations, options.hidden_layers);
}

TEST(SocketClusterConformanceTest, TcpBspMatchesInProcessTrajectoryBitwise) {
  SocketClusterOptions options;  // 2 workers, 2 servers, 2 shards, BSP dense
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, ShardedSspS0MatchesInProcessTrajectory) {
  SocketClusterOptions options;
  options.shards = 4;
  options.staleness = 0;  // SSP with s=0 must stay bitwise BSP
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, UnixColocatedClusterMatchesTrajectory) {
  SocketClusterOptions options;
  options.unix_sockets = true;
  options.colocate = true;  // worker n and server n share bus node n
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
}

TEST(SocketClusterConformanceTest, Int8ClusterCompressesLikeTheInProcessTrainer) {
  // Every socket member executes the trainer's plan, codecs included: an
  // int8 cluster follows the compressed in-process trajectory bit for bit
  // (a member that dropped the codecs would train raw fp32 and diverge).
  SocketClusterOptions options;
  options.compression = PlanCodecPolicy::kInt8;
  const SocketClusterRun run = RunSocketCluster(options);
  ExpectSameTrajectory(run.trajectory, Oracle(options));
  SocketClusterOptions raw;
  EXPECT_FALSE(run.trajectory == Oracle(raw)) << "the int8 run trained raw fp32";
}

TEST(SocketClusterConformanceTest, SocketWeatherNeverChangesTheTrajectory) {
  // The paper's determinism claim over a lossy wire: drops, duplicates and
  // delays at the record layer must be invisible to training.
  SocketClusterOptions clean;
  const Trajectory oracle = Oracle(clean);
  for (uint64_t seed : testing::ChaosSeeds(2)) {
    SCOPED_TRACE(SeedTrace(seed));
    SocketClusterOptions lossy = clean;
    lossy.faults.seed = seed;
    lossy.faults.drop_prob = 0.05;
    lossy.faults.duplicate_prob = 0.05;
    lossy.faults.delay_prob = 0.10;
    const SocketClusterRun run = RunSocketCluster(lossy);
    ExpectSameTrajectory(run.trajectory, oracle);
    EXPECT_GT(run.faults.drops + run.faults.duplicates + run.faults.delays, 0)
        << "no weather was injected — the lossy run proved nothing";
    EXPECT_GE(run.faults.retransmits, run.faults.drops);
  }
}

}  // namespace
}  // namespace poseidon
