// End-to-end tests of the threaded Poseidon runtime: BSP consistency,
// scheme equivalence (PS == SFB == HybComm, bit-for-bit), equivalence with
// single-node large-batch SGD, determinism, and the statistical behaviour of
// 1-bit quantization.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/single_trainer.h"
#include "src/poseidon/trainer.h"
#include "src/tensor/ops.h"

namespace poseidon {
namespace {

DatasetConfig TinyData() {
  DatasetConfig config;
  config.num_classes = 4;
  config.channels = 1;
  config.height = 8;
  config.width = 8;
  config.train_size = 128;
  config.test_size = 64;
  config.noise_stddev = 0.4f;
  config.seed = 1234;
  return config;
}

NetworkFactory MlpFactory(uint64_t seed = 555) {
  return [seed] {
    Rng rng(seed);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/24, /*hidden_layers=*/2,
                    /*classes=*/4, rng);
  };
}

NetworkFactory ConvFactory(uint64_t seed = 777) {
  return [seed] {
    Rng rng(seed);
    return BuildCifarQuick(/*channels=*/1, /*image_hw=*/8, /*classes=*/4, rng);
  };
}

TrainerOptions Options(int workers, PlanPolicy policy, int servers = 0) {
  TrainerOptions options;
  options.num_workers = workers;
  options.num_servers = servers == 0 ? workers : servers;
  options.batch_per_worker = 8;
  options.sgd = {.learning_rate = 0.05f, .momentum = 0.9f};
  options.fc_policy = policy;
  options.kv_pair_bytes = 512;  // force multi-pair sharding even for tiny nets
  return options;
}

// Collects all parameters of a network into one flat vector.
std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

double MaxDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return worst;
}

TEST(IntegrationTest, ReplicasStayBitwiseIdenticalUnderBsp) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer trainer(MlpFactory(), Options(3, PlanPolicy::kHybrid));
  trainer.Train(dataset, 10);
  const std::vector<float> w0 = AllParams(trainer.worker_net(0));
  for (int w = 1; w < 3; ++w) {
    EXPECT_EQ(MaxDiff(w0, AllParams(trainer.worker_net(w))), 0.0)
        << "replica " << w << " diverged";
  }
}

TEST(IntegrationTest, SfbBitwiseEqualsDensePs) {
  // HybComm's guarantee: switching an FC layer from PS to SFB changes bytes
  // on the wire, never the algorithm. With reductions in fixed worker order
  // the trajectories are bitwise identical.
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer dense(MlpFactory(), Options(2, PlanPolicy::kDense));
  PoseidonTrainer sfb(MlpFactory(), Options(2, PlanPolicy::kSfb));
  dense.Train(dataset, 8);
  sfb.Train(dataset, 8);
  EXPECT_EQ(MaxDiff(AllParams(dense.worker_net(0)), AllParams(sfb.worker_net(0))), 0.0);
}

TEST(IntegrationTest, HybridEqualsDensePs) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer dense(ConvFactory(), Options(2, PlanPolicy::kDense));
  PoseidonTrainer hybrid(ConvFactory(), Options(2, PlanPolicy::kHybrid));
  dense.Train(dataset, 6);
  hybrid.Train(dataset, 6);
  EXPECT_EQ(MaxDiff(AllParams(dense.worker_net(0)), AllParams(hybrid.worker_net(0))), 0.0);
}

TEST(IntegrationTest, DistributedMatchesSingleNodeLargeBatch) {
  // Synchronous data-parallel SGD with P workers of batch K must follow the
  // same trajectory as one worker with batch P*K (up to float summation
  // order; §5.1 "synchronized replication ... enables many models to
  // converge in fewer steps").
  SyntheticDataset dataset(TinyData());
  const int iters = 10;

  PoseidonTrainer distributed(MlpFactory(), Options(4, PlanPolicy::kHybrid));
  distributed.Train(dataset, iters);

  auto reference = MlpFactory()();
  SgdOptimizer opt({.learning_rate = 0.05f, .momentum = 0.9f});
  TrainSingleNode(*reference, dataset, opt, iters, /*batch=*/4 * 8);

  const std::vector<float> dist = AllParams(distributed.worker_net(0));
  const std::vector<float> ref = AllParams(*reference);
  EXPECT_LT(MaxDiff(dist, ref), 2e-4) << "BSP trajectory diverged from large-batch SGD";
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer a(ConvFactory(), Options(3, PlanPolicy::kHybrid));
  PoseidonTrainer b(ConvFactory(), Options(3, PlanPolicy::kHybrid));
  a.Train(dataset, 5);
  b.Train(dataset, 5);
  EXPECT_EQ(MaxDiff(AllParams(a.worker_net(0)), AllParams(b.worker_net(0))), 0.0);
}

TEST(IntegrationTest, FewerServersThanWorkers) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer trainer(MlpFactory(), Options(4, PlanPolicy::kDense, /*servers=*/2));
  const auto stats = trainer.Train(dataset, 8);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  const std::vector<float> w0 = AllParams(trainer.worker_net(0));
  EXPECT_EQ(MaxDiff(w0, AllParams(trainer.worker_net(3))), 0.0);
}

TEST(IntegrationTest, TrainingReducesLossAndGeneralizes) {
  DatasetConfig config = TinyData();
  config.noise_stddev = 0.3f;
  SyntheticDataset dataset(config);
  PoseidonTrainer trainer(MlpFactory(), Options(2, PlanPolicy::kHybrid));
  const auto stats = trainer.Train(dataset, 60);
  EXPECT_LT(stats.back().mean_loss, 0.5 * stats.front().mean_loss);
  EXPECT_GT(trainer.EvaluateTest(dataset).accuracy, 0.8);
}

TEST(IntegrationTest, OneBitQuantizationDegradesButLearns) {
  // Fig 11's contrast: 1-bit quantization still reduces loss but trails the
  // exact schemes on the same iteration budget.
  SyntheticDataset dataset(TinyData());
  const int iters = 40;
  PoseidonTrainer exact(MlpFactory(), Options(4, PlanPolicy::kHybrid));
  PoseidonTrainer onebit(MlpFactory(), Options(4, PlanPolicy::kOneBit));
  const auto exact_stats = exact.Train(dataset, iters);
  const auto onebit_stats = onebit.Train(dataset, iters);

  EXPECT_LT(onebit_stats.back().mean_loss, onebit_stats.front().mean_loss);
  // The exact run should be at least as good (small slack for noise).
  EXPECT_LE(exact_stats.back().mean_loss, onebit_stats.back().mean_loss + 0.05);
  // And the parameter trajectories genuinely differ (it is a lossy codec).
  EXPECT_GT(MaxDiff(AllParams(exact.worker_net(0)), AllParams(onebit.worker_net(0))), 1e-4);
}

TEST(IntegrationTest, TrafficFollowsSchemeChoice) {
  // SFB for a wide-but-short FC stack should move fewer bytes than dense PS
  // when the cost model says so (and the runtime's accounting shows it).
  DatasetConfig config = TinyData();
  SyntheticDataset dataset(config);
  auto factory = [] {
    Rng rng(31);
    return BuildMlp(/*input_dim=*/64, /*hidden_dim=*/256, /*hidden_layers=*/1,
                    /*classes=*/4, rng);
  };
  TrainerOptions dense_opts = Options(4, PlanPolicy::kDense);
  dense_opts.batch_per_worker = 4;  // tiny K: SFs are much smaller than MN
  TrainerOptions sfb_opts = dense_opts;
  sfb_opts.fc_policy = PlanPolicy::kSfb;

  int64_t dense_bytes = 0;
  int64_t sfb_bytes = 0;
  {
    PoseidonTrainer trainer(factory, dense_opts);
    trainer.Train(dataset, 3);
    for (int64_t b : trainer.bus().TxBytes()) {
      dense_bytes += b;
    }
  }
  {
    PoseidonTrainer trainer(factory, sfb_opts);
    trainer.Train(dataset, 3);
    for (int64_t b : trainer.bus().TxBytes()) {
      sfb_bytes += b;
    }
  }
  EXPECT_LT(sfb_bytes, dense_bytes / 2);
}

TEST(IntegrationTest, TrainCanBeResumed) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer trainer(MlpFactory(), Options(2, PlanPolicy::kHybrid));
  const auto first = trainer.Train(dataset, 5);
  const auto second = trainer.Train(dataset, 5);
  EXPECT_EQ(second.front().iter, 5);
  EXPECT_EQ(second.size(), 5u);
  EXPECT_LT(second.back().mean_loss, first.front().mean_loss);
}

// ----------------------------------------------------------------- golden --

// Every BSP configuration below must reproduce its line of
// tests/golden/runtime_trajectories.txt byte for byte: the per-iteration
// mean loss (hex floats), an FNV-1a hash of worker 0's parameters, and the
// bus's total tx bytes and messages. A refactor of the sync path leaves the
// file unchanged; a legitimate change to a trajectory regenerates it with
// POSEIDON_REGEN_GOLDEN=1. SSP runs are nondeterministic and stay out.
struct TrajectoryCase {
  std::string name;
  NetworkFactory factory;
  TrainerOptions options;
};

uint64_t Fnv1a(const std::vector<float>& values) {
  uint64_t hash = 1469598103934665603ull;
  for (float v : values) {
    uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::vector<TrajectoryCase> TrajectoryCases() {
  std::vector<TrajectoryCase> cases;
  auto add = [&cases](std::string name, NetworkFactory factory, TrainerOptions options) {
    cases.push_back({std::move(name), std::move(factory), std::move(options)});
  };
  const std::vector<std::pair<const char*, PlanPolicy>> policies = {
      {"dense", PlanPolicy::kDense},
      {"sfb", PlanPolicy::kSfb},
      {"hybrid", PlanPolicy::kHybrid},
      {"onebit", PlanPolicy::kOneBit},
      {"ring", PlanPolicy::kRingAllreduce},
      {"tree", PlanPolicy::kTreeAllreduce},
      {"hybrid-collective", PlanPolicy::kHybridCollective},
  };
  for (const auto& [name, policy] : policies) {
    for (int shards : {1, 2, 3}) {
      TrainerOptions options = Options(3, policy, /*servers=*/2);
      options.shards_per_server = shards;
      add(std::string("mlp.") + name + ".shards" + std::to_string(shards), MlpFactory(),
          options);
    }
  }
  const std::vector<std::pair<const char*, PlanCodecPolicy>> codecs = {
      {"fp16", PlanCodecPolicy::kFp16},
      {"int8", PlanCodecPolicy::kInt8},
      {"topk", PlanCodecPolicy::kTopK},
  };
  for (const auto& [name, codec] : codecs) {
    TrainerOptions options = Options(3, PlanPolicy::kDense, /*servers=*/2);
    options.shards_per_server = 2;
    options.ps_compression = codec;
    options.compression_min_floats = 1;
    options.topk_density = 0.25;
    add(std::string("mlp.dense.") + name + ".shards2", MlpFactory(), options);
  }
  for (const auto& [name, policy] : policies) {
    if (policy == PlanPolicy::kSfb || policy == PlanPolicy::kHybridCollective) {
      continue;
    }
    add(std::string("conv.") + name, ConvFactory(), Options(3, policy, /*servers=*/2));
  }
  for (const auto& [name, factory] :
       std::vector<std::pair<const char*, NetworkFactory>>{{"mlp", MlpFactory()},
                                                           {"conv", ConvFactory()}}) {
    TrainerOptions options = Options(3, PlanPolicy::kHybrid, /*servers=*/2);
    options.plan_mode = TrainerPlanMode::kAuto;
    add(std::string(name) + ".auto", factory, options);
  }
  return cases;
}

std::string TrajectoryLine(const TrajectoryCase& c) {
  SyntheticDataset dataset(TinyData());
  PoseidonTrainer trainer(c.factory, c.options);
  const std::vector<IterationStats> stats = trainer.Train(dataset, 5);
  std::string line = c.name + " loss=";
  char buf[64];
  for (size_t i = 0; i < stats.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%a", i == 0 ? "" : ",", stats[i].mean_loss);
    line += buf;
  }
  int64_t tx_bytes = 0;
  int64_t tx_msgs = 0;
  for (int64_t b : trainer.bus().TxBytes()) {
    tx_bytes += b;
  }
  for (int64_t m : trainer.bus().TxMessages()) {
    tx_msgs += m;
  }
  std::snprintf(buf, sizeof(buf), " params=%016" PRIx64, Fnv1a(AllParams(trainer.worker_net(0))));
  line += buf;
  line += " tx_bytes=" + std::to_string(tx_bytes) + " tx_msgs=" + std::to_string(tx_msgs);
  return line;
}

TEST(RuntimeTrajectoryGoldenTest, BspConfigurationsReproduceCommittedTrajectories) {
  const char* dir = std::getenv("POSEIDON_GOLDEN_DIR");
  ASSERT_NE(dir, nullptr) << "POSEIDON_GOLDEN_DIR not set (ctest sets it)";
  const std::string path = std::string(dir) + "/runtime_trajectories.txt";

  std::string text;
  for (const TrajectoryCase& c : TrajectoryCases()) {
    text += TrajectoryLine(c) + "\n";
  }

  if (const char* regen = std::getenv("POSEIDON_REGEN_GOLDEN");
      regen != nullptr && regen[0] == '1') {
    std::ofstream out(path, std::ios::binary);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path
                         << " missing; run with POSEIDON_REGEN_GOLDEN=1 to create it";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  // Line-wise first, so a drift names the configuration.
  std::istringstream want(expected);
  std::istringstream got(text);
  std::string want_line;
  std::string got_line;
  while (std::getline(want, want_line) && std::getline(got, got_line)) {
    EXPECT_EQ(want_line, got_line) << "runtime trajectory drifted from the committed golden";
  }
  EXPECT_EQ(expected, text) << "line count drifted; regenerate with POSEIDON_REGEN_GOLDEN=1 "
                               "only if the change is intentional";
}

}  // namespace
}  // namespace poseidon
