// Tests for the model zoo (Table 3 parameter counts) and the Table 1 /
// Algorithm 1 communication cost model, including the worked example from
// paper §3.2.
#include <gtest/gtest.h>

#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/planner/comm_planner.h"

namespace poseidon {
namespace {

double Millions(int64_t v) { return static_cast<double>(v) / 1e6; }

TEST(ZooTest, Table3ParameterCounts) {
  // Paper Table 3: CIFAR-10 quick 145.6K, GoogLeNet ~5M, Inception-V3 27M,
  // VGG19 143M, VGG19-22K 229M, ResNet-152 60.2M.
  EXPECT_NEAR(static_cast<double>(MakeCifarQuick().total_params()), 145.6e3, 1.5e3);
  EXPECT_NEAR(Millions(MakeGoogLeNet().total_params()), 6.0, 1.2);
  EXPECT_NEAR(Millions(MakeInceptionV3().total_params()), 27.0, 2.5);
  EXPECT_NEAR(Millions(MakeVgg19().total_params()), 143.7, 1.5);
  EXPECT_NEAR(Millions(MakeVgg19_22K().total_params()), 229.0, 3.0);
  EXPECT_NEAR(Millions(MakeResNet152().total_params()), 60.2, 1.5);
  EXPECT_NEAR(Millions(MakeAlexNet().total_params()), 61.5, 1.5);
}

TEST(ZooTest, Vgg22KFcFractionIs91Percent) {
  // §5.1: VGG19-22K's "three FC layers occupy 91% of model parameters".
  EXPECT_NEAR(MakeVgg19_22K().fc_param_fraction(), 0.91, 0.015);
}

TEST(ZooTest, ConvComputeDominatesVgg) {
  // WFBP's premise: CONV layers own ~90% of FLOPs, FC layers ~90% of params.
  const ModelSpec vgg = MakeVgg19();
  double conv_flops = 0.0;
  double total_flops = 0.0;
  for (const LayerSpec& layer : vgg.layers) {
    total_flops += layer.fwd_flops;
    if (layer.type == LayerType::kConv) {
      conv_flops += layer.fwd_flops;
    }
  }
  EXPECT_GT(conv_flops / total_flops, 0.9);
  EXPECT_GT(vgg.fc_param_fraction(), 0.8);
}

TEST(ZooTest, DefaultBatchesMatchTable3) {
  EXPECT_EQ(MakeCifarQuick().default_batch, 100);
  EXPECT_EQ(MakeGoogLeNet().default_batch, 128);
  EXPECT_EQ(MakeInceptionV3().default_batch, 32);
  EXPECT_EQ(MakeVgg19().default_batch, 32);
  EXPECT_EQ(MakeVgg19_22K().default_batch, 32);
  EXPECT_EQ(MakeResNet152().default_batch, 32);
}

TEST(ZooTest, ModelByNameRoundTrips) {
  for (const ModelSpec& model : AllZooModels()) {
    const auto found = ModelByName(model.name);
    ASSERT_TRUE(found.ok()) << model.name;
    EXPECT_EQ(found->total_params(), model.total_params());
  }
  EXPECT_FALSE(ModelByName("nonexistent").ok());
}

TEST(ZooTest, LayersOrderedConvThenFc) {
  // Zoo networks put FC heads at the top (end), the property WFBP exploits.
  for (const ModelSpec& model : AllZooModels()) {
    bool seen_fc = false;
    for (const LayerSpec& layer : model.layers) {
      if (layer.type == LayerType::kFC) {
        seen_fc = true;
      } else {
        EXPECT_FALSE(seen_fc) << model.name << ": CONV layer above an FC layer";
      }
    }
    EXPECT_TRUE(seen_fc) << model.name << " has a classifier";
  }
}

// ------------------------------------------------------------ cost model ----

CommCostQuery PaperExample() {
  // §3.2 worked example: 4096x4096 FC layer, K = 32, P1 = P2 = 8.
  CommCostQuery q;
  q.m = 4096;
  q.n = 4096;
  q.batch_k = 32;
  q.num_workers = 8;
  q.num_servers = 8;
  return q;
}

TEST(CommCostTest, PaperWorkedExample) {
  const CommCostQuery q = PaperExample();
  // "synchronizing its parameters via PS will transfer 2MN ≈ 34 million
  // parameters for a worker node"
  EXPECT_NEAR(PsWorkerFloats(q) / 1e6, 33.6, 0.1);
  // "2*P1*M*N/P2 ≈ 34 million for a server node"
  EXPECT_NEAR(PsServerFloats(q) / 1e6, 33.6, 0.1);
  // "2MN(P1+P2-2)/P2 ≈ 58.7 million for a node that is both"
  EXPECT_NEAR(PsColocatedFloats(q) / 1e6, 58.7, 0.2);
  // "2K(M+N)(P1-1) ≈ 3.7 million for a single node using SFB"
  EXPECT_NEAR(SfbWorkerFloats(q) / 1e6, 3.67, 0.05);
  EXPECT_LE(SfbWorkerFloats(q), PsColocatedFloats(q));  // Algorithm 1 picks SFB
}

TEST(CommCostTest, AdamCosts) {
  const CommCostQuery q = PaperExample();
  EXPECT_DOUBLE_EQ(AdamServerMaxFloats(q),
                   8.0 * 4096 * 4096 + 8.0 * 32 * (4096 + 4096));
  EXPECT_DOUBLE_EQ(AdamWorkerFloats(q), 32.0 * (4096 + 4096) + 4096.0 * 4096);
  EXPECT_DOUBLE_EQ(AdamColocatedMaxFloats(q),
                   7.0 * (4096.0 * 4096 + 32.0 * 4096 + 32.0 * 4096));
}

// Algorithm 1 as the planner's paper mode decides it for a one-layer model on
// `p` colocated nodes at batch `k`.
PlannedScheme HybridPick(const LayerSpec& layer, int64_t k, int p) {
  ModelSpec model;
  model.name = layer.name;
  model.layers = {layer};
  return PlanComm(PaperRequest(model, p, static_cast<int>(k), PlanPolicy::kHybrid))
      .layers[0]
      .scheme;
}

TEST(CommCostTest, ConvAlwaysPs) {
  LayerSpec conv = ConvLayer("c", 64, 64, 3, 28);
  EXPECT_EQ(HybridPick(conv, 32, 8), PlannedScheme::kPS);
}

TEST(CommCostTest, SingleWorkerAlwaysPs) {
  LayerSpec fc = FcLayer("fc", 4096, 4096);
  EXPECT_EQ(HybridPick(fc, 32, 1), PlannedScheme::kPS);
}

TEST(CommCostTest, GoogLeNetClassifierFlipsWithScale) {
  // §5.2: GoogLeNet's thin 1000x1024 FC with batch 128 reduces to PS at 16
  // nodes, but SFB still wins on few nodes.
  LayerSpec fc = FcLayer("loss3", 1000, 1024);
  EXPECT_EQ(HybridPick(fc, 128, 16), PlannedScheme::kPS);
  EXPECT_EQ(HybridPick(fc, 128, 2), PlannedScheme::kSFB);
}

TEST(CommCostTest, BigSoftmaxPrefersSfbEvenAtScale) {
  // VGG19-22K's 21841x4096 classifier at K=32 stays SFB through 32 nodes.
  LayerSpec fc = FcLayer("fc8_22k", 21841, 4096);
  EXPECT_EQ(HybridPick(fc, 32, 32), PlannedScheme::kSFB);
}

// Property sweep: the planner's Algorithm-1 decision must agree with
// comparing the two Table 1 cost rows it is defined from.
struct SweepParam {
  int64_t m;
  int64_t n;
  int64_t k;
  int p;
};

class HybridPlanSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HybridPlanSweep, MatchesCostComparison) {
  const SweepParam param = GetParam();
  LayerSpec fc = FcLayer("fc", param.m, param.n);
  CommCostQuery q;
  q.m = param.m;
  q.n = param.n;
  q.batch_k = param.k;
  q.num_workers = param.p;
  q.num_servers = param.p;
  const bool sfb = HybridPick(fc, param.k, param.p) == PlannedScheme::kSFB;
  EXPECT_EQ(sfb, SfbWorkerFloats(q) <= PsColocatedFloats(q));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HybridPlanSweep,
    ::testing::Values(SweepParam{4096, 4096, 32, 2}, SweepParam{4096, 4096, 32, 8},
                      SweepParam{4096, 4096, 32, 32}, SweepParam{1000, 1024, 128, 4},
                      SweepParam{1000, 1024, 128, 16}, SweepParam{21841, 4096, 32, 32},
                      SweepParam{100, 100, 256, 8}, SweepParam{25088, 4096, 32, 16},
                      SweepParam{10, 10, 1, 2}, SweepParam{65536, 16, 64, 8}));

TEST(CommCostTest, SfbCostGrowsQuadraticallyWithWorkers) {
  // §2.1: "the overall communication overheads of SFB increase quadratically
  // with the number of workers" (total = per-worker * P1).
  CommCostQuery q = PaperExample();
  q.num_workers = 4;
  const double total4 = SfbWorkerFloats(q) * q.num_workers;
  q.num_workers = 8;
  const double total8 = SfbWorkerFloats(q) * q.num_workers;
  // Doubling P roughly quadruples total bytes: (8*7)/(4*3) = 14/3.
  EXPECT_NEAR(total8 / total4, 14.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace poseidon
