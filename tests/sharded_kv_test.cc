// Sharded KV-store invariants: the coordinator's partition plan must give
// every key exactly one owning shard endpoint, striping must stay balanced,
// and — the acceptance bar for the sharding refactor — a layer striped over
// any number of shard endpoints must reassemble bitwise: the number of
// shards is a pure serving-topology knob with zero effect on the training
// trajectory under BSP.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/kv_store.h"
#include "src/poseidon/trainer.h"
#include "src/tensor/onebit.h"
#include "src/transport/codec.h"

namespace poseidon {
namespace {

ClusterInfo ShardedCluster(int workers, int servers, int shards, int64_t kv_bytes = 1024) {
  ClusterInfo cluster;
  cluster.num_workers = workers;
  cluster.num_servers = servers;
  cluster.shards_per_server = shards;
  cluster.batch_per_worker = 8;
  cluster.kv_pair_bytes = kv_bytes;
  return cluster;
}

TEST(ShardedPartitionTest, EveryKeyOwnedByExactlyOneShard) {
  Rng rng(21);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  const int servers = 3;
  const int shards = 4;
  Coordinator coordinator(*net, ShardedCluster(2, servers, shards, /*kv_bytes=*/4096));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    // Contiguous full coverage of the flat parameter space...
    int64_t expected_offset = 0;
    for (const KvPairInfo& pair : info.pairs) {
      EXPECT_EQ(pair.offset, expected_offset);
      EXPECT_GT(pair.length, 0);
      EXPECT_GE(pair.server, 0);
      EXPECT_LT(pair.server, servers);
      EXPECT_GE(pair.shard, 0);
      EXPECT_LT(pair.shard, shards);
      expected_offset += pair.length;
    }
    EXPECT_EQ(expected_offset, info.total_floats);
    // ...and the per-endpoint views partition it: each pair shows up in
    // exactly one PairsOnShard answer.
    size_t across_shards = 0;
    for (int s = 0; s < servers; ++s) {
      size_t on_server = 0;
      for (int h = 0; h < shards; ++h) {
        on_server += coordinator.PairsOnShard(l, s, h).size();
      }
      EXPECT_EQ(on_server, coordinator.PairsOnServer(l, s).size());
      across_shards += on_server;
    }
    EXPECT_EQ(across_shards, info.pairs.size());
  }
}

TEST(ShardedPartitionTest, SmallLayersStillSpreadAcrossServers) {
  // The endpoint cursor is server-major: consecutive pairs alternate server
  // nodes before reusing a node's next shard, so even a layer with fewer
  // pairs than total endpoints spreads its push traffic over every server
  // NIC it can reach (a shard-major cursor would pile such a layer onto one
  // node while the others idle).
  Rng rng(26);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  const int servers = 4;
  Coordinator coordinator(*net, ShardedCluster(2, servers, /*shards=*/4,
                                               /*kv_bytes=*/4096));
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    std::vector<bool> seen(static_cast<size_t>(servers), false);
    int distinct = 0;
    for (const KvPairInfo& pair : info.pairs) {
      if (!seen[static_cast<size_t>(pair.server)]) {
        seen[static_cast<size_t>(pair.server)] = true;
        ++distinct;
      }
    }
    const int want = static_cast<int>(
        std::min<size_t>(info.pairs.size(), static_cast<size_t>(servers)));
    EXPECT_EQ(distinct, want) << "layer " << l << " (" << info.pairs.size()
                              << " pairs) does not alternate servers";
  }
}

TEST(ShardedPartitionTest, StripingBalancesShardEndpoints) {
  Rng rng(22);
  auto net = BuildMlp(/*input_dim=*/2048, /*hidden_dim=*/512, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  const int servers = 2;
  const int shards = 4;
  Coordinator coordinator(*net, ShardedCluster(4, servers, shards, /*kv_bytes=*/8192));
  const std::vector<int64_t> load = coordinator.ShardLoadFloats();
  ASSERT_EQ(load.size(), static_cast<size_t>(servers * shards));
  const int64_t max = *std::max_element(load.begin(), load.end());
  const int64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min, 0);
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.2);
  // Shard loads must sum to the server loads they subdivide.
  const std::vector<int64_t> server_load = coordinator.ServerLoadFloats();
  for (int s = 0; s < servers; ++s) {
    int64_t sum = 0;
    for (int h = 0; h < shards; ++h) {
      sum += load[static_cast<size_t>(s * shards + h)];
    }
    EXPECT_EQ(sum, server_load[static_cast<size_t>(s)]);
  }
}

TEST(ShardedPartitionTest, SingleShardReproducesSeedPartition) {
  // With one shard per server the partition must be the seed's round-robin
  // over servers: pair i of the global sequence lands on server i mod S.
  Rng rng(23);
  auto net = BuildMlp(256, 64, 1, 4, rng);
  Coordinator coordinator(*net, ShardedCluster(2, 3, 1, /*kv_bytes=*/512));
  int global = 0;
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    for (const KvPairInfo& pair : coordinator.layer(l).pairs) {
      EXPECT_EQ(pair.server, global % 3);
      EXPECT_EQ(pair.shard, 0);
      ++global;
    }
  }
}

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

std::vector<float> TrainWithShards(int shards, PlanPolicy policy, int staleness = 0) {
  DatasetConfig data;
  data.num_classes = 3;
  data.channels = 1;
  data.height = 8;
  data.width = 8;
  data.train_size = 96;
  data.noise_stddev = 0.4f;
  data.seed = 2024;
  SyntheticDataset dataset(data);

  NetworkFactory factory = [] {
    Rng rng(13);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/20, /*hidden_layers=*/2,
                    /*classes=*/3, rng);
  };
  TrainerOptions options;
  options.num_workers = 3;
  options.num_servers = 2;
  options.shards_per_server = shards;
  options.staleness = staleness;
  options.batch_per_worker = 6;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = policy;
  options.kv_pair_bytes = 256;  // many pairs, so layers really stripe
  options.syncer_threads = 2;

  PoseidonTrainer trainer(factory, options);
  const auto stats = trainer.Train(dataset, 12);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss) << "no learning";
  for (int w = 1; w < options.num_workers; ++w) {
    EXPECT_EQ(AllParams(trainer.worker_net(0)), AllParams(trainer.worker_net(w)))
        << "replica " << w << " diverged";
  }
  return AllParams(trainer.worker_net(0));
}

TEST(ShardedKvStoreTest, StripedLayersReassembleBitwise) {
  // The acceptance criterion: under BSP (s = 0) the shard count must not
  // perturb a single bit of the trajectory — 1 shard (the seed's PS path),
  // 2 and 4 shards must produce identical parameters.
  const std::vector<float> one = TrainWithShards(1, PlanPolicy::kDense);
  EXPECT_EQ(one, TrainWithShards(2, PlanPolicy::kDense));
  EXPECT_EQ(one, TrainWithShards(4, PlanPolicy::kDense));
}

TEST(ShardedKvStoreTest, OneBitLayersFollowTheirOwnerShard) {
  // 1-bit layers route whole to one owner endpoint; sharding must relocate
  // them without corrupting training (the trajectory is shard-invariant
  // there too: a single endpoint applies the same worker-ordered math).
  const std::vector<float> one = TrainWithShards(1, PlanPolicy::kOneBit);
  EXPECT_EQ(one, TrainWithShards(3, PlanPolicy::kOneBit));
}

TEST(ShardedKvStoreTest, AutoShardCountFollowsCostModel) {
  Rng rng(24);
  auto net = BuildMlp(64, 20, 2, 3, rng);
  ClusterInfo cluster = ShardedCluster(3, 2, 1);
  Coordinator coordinator(*net, cluster);
  TrainerOptions options;
  options.num_workers = 3;
  options.num_servers = 2;
  options.shards_per_server = 0;  // auto
  options.batch_per_worker = 8;
  options.fc_policy = PlanPolicy::kDense;
  const std::shared_ptr<const CommPlan> plan = RuntimePlan(coordinator, options);
  ASSERT_GE(plan->ps_shards, 1);
  ASSERT_LE(plan->ps_shards, kMaxAutoShards);
  // P1 = 3 > 2: the sharded colocated row is strictly decreasing in the
  // shard count, so the recommendation saturates at the cap.
  EXPECT_EQ(plan->ps_shards, kMaxAutoShards);

  // shards_per_server = 0 asks the trainer to adopt exactly that plan.
  NetworkFactory factory = [] {
    Rng rng_inner(13);
    return BuildMlp(64, 20, 2, 3, rng_inner);
  };
  PoseidonTrainer trainer(factory, options);
  EXPECT_EQ(trainer.shards_per_server(), plan->ps_shards);
}

TEST(ShardedKvStoreTest, TwoWorkersNeverAutoShard) {
  // P1 = 2: each endpoint already serves exactly one remote worker's worth
  // of traffic; the row is flat in S and auto-sharding must stay at 1.
  Rng rng(25);
  auto net = BuildMlp(64, 20, 1, 3, rng);
  Coordinator coordinator(*net, ShardedCluster(2, 2, 1));
  TrainerOptions options;
  options.num_workers = 2;
  options.num_servers = 2;
  options.shards_per_server = 0;  // auto
  options.fc_policy = PlanPolicy::kDense;
  EXPECT_EQ(RuntimePlan(coordinator, options)->ps_shards, 1);
}

// ----------------------------------------------------- shard wire input --
// A KvServer on an in-process bus, fed hand-built pushes from two workers:
// a codec frame that does not fit its layer must be dropped whole on
// arrival, and the clock must still apply once the well-formed pushes land.

class KvShardWireInputTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 2;

  /// Plans the 64-20-20-3 MLP for two workers and one single-shard server,
  /// then starts the server and a reply mailbox per worker for `layer`.
  void StartServer(TrainerOptions options) {
    options.num_workers = kWorkers;
    options.num_servers = 1;
    options.shards_per_server = 1;
    options.batch_per_worker = 8;
    Rng rng(27);
    net_ = BuildMlp(/*input_dim=*/64, /*hidden_dim=*/20, /*hidden_layers=*/2,
                    /*classes=*/3, rng);
    plan_ = AssembleRuntime(*net_, options, &coordinator_);
    bus_ = std::make_unique<MessageBus>(coordinator_->cluster().NumNodes());
    server_ = std::make_unique<KvServer>(0, /*first_iter=*/0, *coordinator_, *plan_, *net_,
                                         bus_.get(), options.sgd);
    server_->Start();
  }

  /// The first layer the plan serves with `scheme`.
  int FirstLayer(PlannedScheme scheme) const {
    for (size_t l = 0; l < plan_->layers.size(); ++l) {
      if (plan_->layers[l].scheme == scheme) {
        return static_cast<int>(l);
      }
    }
    return -1;
  }

  void Register(int layer) {
    for (int w = 0; w < kWorkers; ++w) {
      replies_.push_back(bus_->Register(Address{w, kSyncerPortBase + layer}));
    }
  }

  void Push(MessageType type, int layer, int worker, WireCodec codec,
            std::vector<WireChunk> chunks) {
    Message push;
    push.type = type;
    push.from = Address{worker, kSyncerPortBase + layer};
    push.to = coordinator_->cluster().ShardAddress(0, 0);
    push.layer = layer;
    push.worker = worker;
    push.iter = 0;
    push.codec = codec;
    push.chunks = std::move(chunks);
    ASSERT_TRUE(bus_->Send(std::move(push)).ok());
  }

  /// Worker `w`'s clock-0 reply, or nullopt after a generous deadline.
  std::optional<Message> Reply(int w) {
    return replies_[static_cast<size_t>(w)]->PopFor(std::chrono::seconds(30));
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
    }
  }

  std::unique_ptr<Network> net_;
  std::unique_ptr<Coordinator> coordinator_;
  std::shared_ptr<const CommPlan> plan_;
  std::unique_ptr<MessageBus> bus_;
  std::unique_ptr<KvServer> server_;
  std::vector<std::shared_ptr<MessageBus::Mailbox>> replies_;
};

/// A 1-bit frame of a [rows, cols] gradient with a `bias_len` bias trailer.
Payload OneBitFrame(int64_t rows, int64_t cols, int64_t bias_len) {
  Tensor gradient({rows, cols});
  for (int64_t i = 0; i < gradient.size(); ++i) {
    gradient.data()[i] = static_cast<float>(i % 7) - 3.0f;
  }
  const std::vector<float> bias(static_cast<size_t>(bias_len), 0.5f);
  OneBitQuantizer quantizer;
  return OneBitCodec::Encode(gradient, &quantizer, bias.data(), bias_len);
}

TEST_F(KvShardWireInputTest, MisshapenOneBitFramesAreRejectedOnArrival) {
  TrainerOptions options;
  options.fc_policy = PlanPolicy::kOneBit;
  StartServer(options);
  const int layer = FirstLayer(PlannedScheme::kOneBit);
  ASSERT_GE(layer, 0) << "the plan serves no layer 1-bit";
  const LayerInfo& info = coordinator_->layer(layer);
  ASSERT_NE(info.fc_m, info.fc_n) << "a transposed frame would fit";
  Register(layer);

  // Same float count as the layer, wrong shape: rows and cols swapped.
  const Payload transposed = OneBitFrame(info.fc_n, info.fc_m, info.fc_m);
  Push(MessageType::kOneBitPush, layer, 0, WireCodec::kOneBit, {{0, transposed.View()}});
  const Payload short_bias = OneBitFrame(info.fc_m, info.fc_n, info.fc_m - 1);
  Push(MessageType::kOneBitPush, layer, 1, WireCodec::kOneBit, {{0, short_bias.View()}});
  const Payload good = OneBitFrame(info.fc_m, info.fc_n, info.fc_m);
  Push(MessageType::kOneBitPush, layer, 0, WireCodec::kOneBit, {{0, good.View()}});
  Push(MessageType::kOneBitPush, layer, 1, WireCodec::kOneBit, {{0, good.View()}});

  for (int w = 0; w < kWorkers; ++w) {
    const std::optional<Message> reply = Reply(w);
    ASSERT_TRUE(reply.has_value()) << "worker " << w << " got no reply";
    EXPECT_EQ(reply->iter, 0);
    EXPECT_EQ(static_cast<int>(reply->codec), static_cast<int>(WireCodec::kRawFloat));
    ASSERT_EQ(reply->chunks.size(), 1u) << "a 1-bit layer replies as one raw pair";
    EXPECT_EQ(reply->chunks[0].offset, 0);
    EXPECT_EQ(reply->chunks[0].view.size(), info.total_floats);
  }
  server_->Shutdown();
  EXPECT_EQ(server_->rejected_pushes(), 2);
  EXPECT_EQ(server_->pushes_processed(), 4);
  EXPECT_EQ(server_->applies(), 1);
  EXPECT_EQ(server_->reconciled_pushes(), 0);
  server_.reset();
}

TEST_F(KvShardWireInputTest, Int8FrameWithWrongDenseCountIsRejectedOnArrival) {
  TrainerOptions options;
  options.fc_policy = PlanPolicy::kDense;
  options.ps_compression = PlanCodecPolicy::kInt8;
  options.compression_min_floats = 1;
  StartServer(options);
  const int layer = FirstLayer(PlannedScheme::kPS);
  ASSERT_GE(layer, 0);
  ASSERT_EQ(plan_->layers[static_cast<size_t>(layer)].compression, GradCompression::kInt8);
  Register(layer);

  const std::vector<KvPairInfo> pairs = coordinator_->PairsOnShard(layer, 0, 0);
  ASSERT_FALSE(pairs.empty());
  std::vector<float> gradient(static_cast<size_t>(coordinator_->layer(layer).total_floats),
                              0.25f);
  // `drop` floats short on the first pair: a frame that validates as int8
  // but expands to the wrong dense count.
  auto frames = [&](int64_t drop) {
    std::vector<Payload> out;
    for (size_t p = 0; p < pairs.size(); ++p) {
      const int64_t n = pairs[p].length - (p == 0 ? drop : 0);
      out.push_back(Int8Codec::EncodeSr(gradient.data() + pairs[p].offset, n,
                                        QuantSeed(layer, 0), pairs[p].offset, nullptr,
                                        nullptr, 0));
    }
    return out;
  };
  auto chunks = [&](const std::vector<Payload>& payloads) {
    std::vector<WireChunk> out;
    for (size_t p = 0; p < pairs.size(); ++p) {
      out.push_back({pairs[p].offset, payloads[p].View()});
    }
    return out;
  };
  const std::vector<Payload> bad = frames(/*drop=*/1);
  Push(MessageType::kGradPush, layer, 0, WireCodec::kInt8, chunks(bad));
  const std::vector<Payload> good = frames(/*drop=*/0);
  Push(MessageType::kGradPush, layer, 0, WireCodec::kInt8, chunks(good));
  Push(MessageType::kGradPush, layer, 1, WireCodec::kInt8, chunks(good));

  for (int w = 0; w < kWorkers; ++w) {
    const std::optional<Message> reply = Reply(w);
    ASSERT_TRUE(reply.has_value()) << "worker " << w << " got no reply";
    EXPECT_EQ(static_cast<int>(reply->codec), static_cast<int>(WireCodec::kFp16));
    EXPECT_EQ(reply->chunks.size(), pairs.size());
  }
  server_->Shutdown();
  EXPECT_EQ(server_->rejected_pushes(), 1);
  EXPECT_EQ(server_->applies(), 1);
  server_.reset();
}

TEST_F(KvShardWireInputTest, RawPushWithWrongLengthIsRejectedOnArrival) {
  TrainerOptions options;
  options.fc_policy = PlanPolicy::kDense;
  StartServer(options);
  const int layer = FirstLayer(PlannedScheme::kPS);
  ASSERT_GE(layer, 0);
  ASSERT_EQ(plan_->layers[static_cast<size_t>(layer)].compression, GradCompression::kNone);
  Register(layer);

  const std::vector<KvPairInfo> pairs = coordinator_->PairsOnShard(layer, 0, 0);
  ASSERT_FALSE(pairs.empty());
  Payload gradient = Payload::Allocate(coordinator_->layer(layer).total_floats);
  std::fill(gradient.data(), gradient.data() + gradient.size(), 0.25f);
  // `drop` floats short on the first pair: a socket peer's misfit raw push.
  auto chunks = [&](int64_t drop) {
    std::vector<WireChunk> out;
    for (size_t p = 0; p < pairs.size(); ++p) {
      out.push_back({pairs[p].offset,
                     gradient.View(pairs[p].offset, pairs[p].length - (p == 0 ? drop : 0))});
    }
    return out;
  };
  Push(MessageType::kGradPush, layer, 0, WireCodec::kRawFloat, chunks(/*drop=*/1));
  Push(MessageType::kGradPush, layer, 0, WireCodec::kRawFloat, chunks(/*drop=*/0));
  Push(MessageType::kGradPush, layer, 1, WireCodec::kRawFloat, chunks(/*drop=*/0));

  for (int w = 0; w < kWorkers; ++w) {
    const std::optional<Message> reply = Reply(w);
    ASSERT_TRUE(reply.has_value()) << "worker " << w << " got no reply";
    EXPECT_EQ(static_cast<int>(reply->codec), static_cast<int>(WireCodec::kRawFloat));
    EXPECT_EQ(reply->chunks.size(), pairs.size());
  }
  server_->Shutdown();
  EXPECT_EQ(server_->rejected_pushes(), 1);
  EXPECT_EQ(server_->pushes_processed(), 3);
  EXPECT_EQ(server_->applies(), 1);
  server_.reset();
}

TEST_F(KvShardWireInputTest, CompressedFrameWithBiasTrailerIsRejectedOnArrival) {
  TrainerOptions options;
  options.fc_policy = PlanPolicy::kDense;
  options.ps_compression = PlanCodecPolicy::kFp16;
  options.compression_min_floats = 1;
  StartServer(options);
  const int layer = FirstLayer(PlannedScheme::kPS);
  ASSERT_GE(layer, 0);
  ASSERT_EQ(plan_->layers[static_cast<size_t>(layer)].compression, GradCompression::kFp16);
  Register(layer);

  const std::vector<KvPairInfo> pairs = coordinator_->PairsOnShard(layer, 0, 0);
  ASSERT_FALSE(pairs.empty());
  std::vector<float> gradient(static_cast<size_t>(coordinator_->layer(layer).total_floats),
                              0.25f);
  const std::vector<float> bias = {1.0f, -1.0f};
  // The right dense count, plus a bias trailer no PS pair carries.
  auto chunks = [&](int64_t bias_len, std::vector<Payload>* frames) {
    std::vector<WireChunk> out;
    for (const KvPairInfo& pair : pairs) {
      frames->push_back(Fp16Codec::EncodeSr(gradient.data() + pair.offset, pair.length,
                                            QuantSeed(layer, 0), pair.offset, nullptr,
                                            bias.data(), bias_len));
      out.push_back({pair.offset, frames->back().View()});
    }
    return out;
  };
  std::vector<Payload> frames;
  Push(MessageType::kGradPush, layer, 0, WireCodec::kFp16, chunks(/*bias_len=*/2, &frames));
  Push(MessageType::kGradPush, layer, 0, WireCodec::kFp16, chunks(/*bias_len=*/0, &frames));
  Push(MessageType::kGradPush, layer, 1, WireCodec::kFp16, chunks(/*bias_len=*/0, &frames));

  for (int w = 0; w < kWorkers; ++w) {
    const std::optional<Message> reply = Reply(w);
    ASSERT_TRUE(reply.has_value()) << "worker " << w << " got no reply";
    EXPECT_EQ(static_cast<int>(reply->codec), static_cast<int>(WireCodec::kFp16));
  }
  server_->Shutdown();
  EXPECT_EQ(server_->rejected_pushes(), 1);
  EXPECT_EQ(server_->applies(), 1);
  server_.reset();
}

}  // namespace
}  // namespace poseidon
