// Behavioural tests for the cluster protocol simulator: single-node
// overheads, scaling shapes, WFBP's overlap benefit, HybComm's bandwidth
// savings, and the per-node traffic properties of Adam vs Poseidon.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/protocol_sim.h"
#include "src/cluster/system_config.h"
#include "src/models/zoo.h"
#include "src/planner/comm_planner.h"

namespace poseidon {
namespace {

ClusterSpec Cluster(int nodes, double gbps) {
  ClusterSpec cluster;
  cluster.num_nodes = nodes;
  cluster.nic_gbps = gbps;
  return cluster;
}

TEST(ProtocolSimTest, SingleNodePoseidonHasLittleOverhead) {
  const ModelSpec model = MakeVgg19();
  const SimResult result = RunProtocolSimulation(model, PoseidonSystem(), Cluster(1, 40.0),
                                                 Engine::kCaffe);
  EXPECT_NEAR(result.speedup, 1.0, 0.05);
}

TEST(ProtocolSimTest, SingleNodeVanillaPsPaysMemcpyOverhead) {
  const ModelSpec model = MakeVgg19();
  const SimResult result =
      RunProtocolSimulation(model, CaffePlusPs(), Cluster(1, 40.0), Engine::kCaffe);
  // Caffe+PS on one node is measurably slower than unmodified Caffe
  // (paper: 21.3 vs 35.5 img/s); our memcpy model reproduces the direction.
  EXPECT_LT(result.speedup, 0.9);
}

TEST(ProtocolSimTest, PoseidonScalesNearLinearlyAt40GbE) {
  const ModelSpec model = MakeVgg19();
  const SimResult result = RunProtocolSimulation(model, PoseidonSystem(), Cluster(16, 40.0),
                                                 Engine::kCaffe);
  EXPECT_GT(result.speedup, 14.0);
  EXPECT_LE(result.speedup, 16.05);
}

TEST(ProtocolSimTest, WfbpBeatsSequentialPs) {
  const ModelSpec model = MakeVgg19();
  const SimResult ps =
      RunProtocolSimulation(model, CaffePlusPs(), Cluster(8, 40.0), Engine::kCaffe);
  const SimResult wfbp =
      RunProtocolSimulation(model, CaffePlusWfbp(), Cluster(8, 40.0), Engine::kCaffe);
  EXPECT_GT(wfbp.speedup, ps.speedup * 1.1);
}

TEST(ProtocolSimTest, HybCommHelpsUnderLimitedBandwidth) {
  const ModelSpec model = MakeVgg19();
  const SimResult wfbp =
      RunProtocolSimulation(model, CaffePlusWfbp(), Cluster(16, 10.0), Engine::kCaffe);
  const SimResult poseidon =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(16, 10.0), Engine::kCaffe);
  EXPECT_GT(poseidon.speedup, wfbp.speedup * 1.3);
  EXPECT_GT(poseidon.speedup, 13.0);  // paper: near-linear at 10 GbE
}

TEST(ProtocolSimTest, PoseidonNeverWorseThanPurePs) {
  // HybComm falls back to PS whenever SFB would cost more, so Poseidon's
  // speedup must dominate Caffe+WFBP across node counts (within noise).
  const ModelSpec model = MakeGoogLeNet();
  for (int nodes : {2, 4, 8, 16}) {
    const SimResult wfbp =
        RunProtocolSimulation(model, CaffePlusWfbp(), Cluster(nodes, 10.0), Engine::kCaffe);
    const SimResult poseidon =
        RunProtocolSimulation(model, PoseidonSystem(), Cluster(nodes, 10.0), Engine::kCaffe);
    EXPECT_GE(poseidon.speedup, wfbp.speedup * 0.999) << "nodes=" << nodes;
  }
}

TEST(ProtocolSimTest, GoogLeNetAt16NodesReducesToPs) {
  // Paper §5.2: large batch (128) and a thin FC layer make SFB lose at 16
  // nodes, so Poseidon chooses PS for the classifier.
  const ModelSpec model = MakeGoogLeNet();
  const SimResult result = RunProtocolSimulation(model, PoseidonSystem(), Cluster(16, 10.0),
                                                 Engine::kCaffe);
  EXPECT_EQ(result.layer_schemes.at("loss3_classifier"), "PS");
}

TEST(ProtocolSimTest, Vgg19FcLayersUseSfb) {
  const ModelSpec model = MakeVgg19();
  const SimResult result =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(8, 40.0), Engine::kCaffe);
  EXPECT_EQ(result.layer_schemes.at("fc6"), "SFB");
  EXPECT_EQ(result.layer_schemes.at("fc7"), "SFB");
  EXPECT_EQ(result.layer_schemes.at("conv5_4"), "PS");
}

TEST(ProtocolSimTest, TfNativeStallsMoreThanPoseidon) {
  const ModelSpec model = MakeVgg19();
  const SimResult tf =
      RunProtocolSimulation(model, TfNative(), Cluster(8, 40.0), Engine::kTensorFlow);
  const SimResult tf_wfbp =
      RunProtocolSimulation(model, TfPlusWfbp(), Cluster(8, 40.0), Engine::kTensorFlow);
  const SimResult poseidon =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(8, 40.0), Engine::kTensorFlow);
  EXPECT_LT(tf.gpu_busy_frac, tf_wfbp.gpu_busy_frac);
  EXPECT_LT(tf_wfbp.gpu_busy_frac, poseidon.gpu_busy_frac + 1e-9);
  EXPECT_GT(poseidon.gpu_busy_frac, 0.85);
}

TEST(ProtocolSimTest, TfNegativeScalingOnVgg22K) {
  // Paper §1/§5.1: distributed TF on VGG19-22K can be slower than a single
  // machine because the 21841-way FC tensor pins one PS shard.
  const ModelSpec model = MakeVgg19_22K();
  const SimResult tf =
      RunProtocolSimulation(model, TfNative(), Cluster(32, 40.0), Engine::kTensorFlow);
  EXPECT_LT(tf.speedup, 8.0);
  const SimResult poseidon =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(32, 40.0), Engine::kTensorFlow);
  EXPECT_GT(poseidon.speedup, 25.0);
}

TEST(ProtocolSimTest, AdamTrafficIsImbalanced) {
  const ModelSpec model = MakeVgg19();
  const SimResult adam =
      RunProtocolSimulation(model, AdamSystem(), Cluster(8, 40.0), Engine::kTensorFlow);
  const SimResult poseidon =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(8, 40.0), Engine::kTensorFlow);
  auto imbalance = [](const std::vector<double>& tx) {
    const double max = *std::max_element(tx.begin(), tx.end());
    const double min = *std::min_element(tx.begin(), tx.end());
    return max / std::max(min, 1e-9);
  };
  EXPECT_GT(imbalance(adam.tx_gbits_per_iter), 3.0);
  EXPECT_LT(imbalance(poseidon.tx_gbits_per_iter), 1.3);
  EXPECT_LT(poseidon.iter_time_s, adam.iter_time_s);
}

TEST(ProtocolSimTest, DeterministicAcrossRuns) {
  const ModelSpec model = MakeVgg19();
  const SimResult a =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(8, 10.0), Engine::kCaffe);
  const SimResult b =
      RunProtocolSimulation(model, PoseidonSystem(), Cluster(8, 10.0), Engine::kCaffe);
  EXPECT_DOUBLE_EQ(a.iter_time_s, b.iter_time_s);
  EXPECT_EQ(a.tx_gbits_per_iter, b.tx_gbits_per_iter);
}

TEST(ProtocolSimTest, SpeedupMonotonicInBandwidthForPs) {
  const ModelSpec model = MakeVgg19();
  double prev = 0.0;
  for (double gbps : {10.0, 20.0, 30.0, 40.0}) {
    const SimResult result =
        RunProtocolSimulation(model, CaffePlusWfbp(), Cluster(16, gbps), Engine::kCaffe);
    EXPECT_GE(result.speedup, prev - 1e-9) << "gbps=" << gbps;
    prev = result.speedup;
  }
}

TEST(ProtocolSimTest, MultiGpuNodeAggregatesLocally) {
  ClusterSpec cluster = Cluster(4, 40.0);
  cluster.gpus_per_node = 8;
  const ModelSpec model = MakeGoogLeNet();
  const SimResult result =
      RunProtocolSimulation(model, PoseidonSystem(), cluster, Engine::kCaffe);
  // Paper: 32x on 4 x p2.8xlarge (32 GPUs) for GoogLeNet; allow a generous
  // band around linear scaling.
  EXPECT_GT(result.speedup, 24.0);
  EXPECT_LE(result.speedup, 32.5);
}

double TotalTxGbits(const SimResult& result) {
  double total = 0.0;
  for (double gbits : result.tx_gbits_per_iter) {
    total += gbits;
  }
  return total;
}

TEST(ProtocolSimTest, CompressedPsCutsWireTraffic) {
  // The simulator's byte accounting must mirror the runtime codecs: fp16
  // roughly halves PS traffic (small layers stay raw under the size gate,
  // and frame headers don't shrink), int8 cuts deeper, top-k at 1% deeper
  // still. Scheme labels expose the per-layer codec choice.
  const ModelSpec model = MakeVgg19();
  const ClusterSpec cluster = Cluster(8, 40.0);
  const SimResult raw =
      RunProtocolSimulation(model, CaffePlusWfbp(), cluster, Engine::kCaffe);
  const SimResult fp16 = RunProtocolSimulation(
      model, CompressedPsSystem(PlanCodecPolicy::kFp16), cluster, Engine::kCaffe);
  const SimResult int8 = RunProtocolSimulation(
      model, CompressedPsSystem(PlanCodecPolicy::kInt8), cluster, Engine::kCaffe);
  const SimResult topk = RunProtocolSimulation(
      model, CompressedPsSystem(PlanCodecPolicy::kTopK, 0.01), cluster, Engine::kCaffe);

  EXPECT_LT(TotalTxGbits(fp16), 0.6 * TotalTxGbits(raw));
  EXPECT_LT(TotalTxGbits(int8), TotalTxGbits(fp16));
  EXPECT_LT(TotalTxGbits(topk), TotalTxGbits(int8));

  EXPECT_EQ(fp16.layer_schemes.at("fc6"), "PS+fp16");
  EXPECT_EQ(int8.layer_schemes.at("fc6"), "PS+int8");
  EXPECT_EQ(topk.layer_schemes.at("fc6"), "PS+topk");
  // conv1_1 (1728 params) sits under kCompressionMinFloats and stays raw.
  EXPECT_EQ(fp16.layer_schemes.at("conv1_1"), "PS");

  // At 40 GbE WFBP already hides the wire, so compression must not hurt; on
  // a starved 5 GbE fabric (comm-bound) the byte savings must win end to end
  // despite the extra CPU quantization passes.
  EXPECT_LE(fp16.iter_time_s, raw.iter_time_s + 1e-9);
  const ClusterSpec starved = Cluster(8, 5.0);
  const SimResult raw_slow =
      RunProtocolSimulation(model, CaffePlusWfbp(), starved, Engine::kCaffe);
  const SimResult fp16_slow = RunProtocolSimulation(
      model, CompressedPsSystem(PlanCodecPolicy::kFp16), starved, Engine::kCaffe);
  EXPECT_LT(fp16_slow.iter_time_s, 0.7 * raw_slow.iter_time_s);
}

TEST(ProtocolSimTest, JointPlanWithAutoCodecBeatsHybridCollective) {
  const ModelSpec model = MakeVgg19();
  const ClusterSpec cluster = Cluster(16, 10.0);
  const SimResult plain = RunProtocolSimulation(model, HybridCollectiveSystem(), cluster,
                                                Engine::kCaffe);
  // Compression joins the scheme menu: the joint byte-basis plan minimizes
  // wire bytes over (PS, codec) and the raw-float alternatives per layer.
  PlanRequest request = PaperRequest(model, 16, model.default_batch,
                                     PlanPolicy::kHybridCollective, PlanCodecPolicy::kAuto);
  request.joint = true;
  const SimResult mixed = RunProtocolSimulation(
      model, PlannedSystem(std::make_shared<const CommPlan>(PlanComm(request))), cluster,
      Engine::kCaffe);

  int compressed_layers = 0;
  for (const auto& [layer, scheme] : mixed.layer_schemes) {
    if (scheme.find('+') != std::string::npos) {
      ++compressed_layers;
    }
  }
  EXPECT_GT(compressed_layers, 0)
      << "the byte-basis chooser never picked a compressed PS row";
  EXPECT_LT(TotalTxGbits(mixed), TotalTxGbits(plain));
}

// The named Adam system is nothing but its paper-mode plan: simulating the
// plan itself reproduces AdamSystem()'s result bit for bit.
TEST(ProtocolSimTest, PlannedAdamPlanReproducesAdamSystem) {
  const ModelSpec model = MakeVgg19();
  for (int nodes : {2, 8}) {
    SCOPED_TRACE(nodes);
    const ClusterSpec cluster = Cluster(nodes, 10.0);
    const auto plan = std::make_shared<const CommPlan>(
        PlanComm(PaperRequest(model, nodes, model.default_batch, PlanPolicy::kAdam)));
    const SimResult named = RunProtocolSimulation(model, AdamSystem(), cluster, Engine::kCaffe);
    const SimResult planned =
        RunProtocolSimulation(model, PlannedSystem(plan), cluster, Engine::kCaffe);
    EXPECT_EQ(named.iter_time_s, planned.iter_time_s);
    EXPECT_EQ(named.images_per_sec, planned.images_per_sec);
    EXPECT_EQ(named.speedup, planned.speedup);
    EXPECT_EQ(named.gpu_busy_frac, planned.gpu_busy_frac);
    EXPECT_EQ(named.tx_gbits_per_iter, planned.tx_gbits_per_iter);
    EXPECT_EQ(named.rx_gbits_per_iter, planned.rx_gbits_per_iter);
    EXPECT_EQ(named.wire_msgs_per_iter, planned.wire_msgs_per_iter);
    EXPECT_EQ(named.layer_schemes, planned.layer_schemes);
    EXPECT_EQ(planned.layer_schemes.at("fc6"), "SF->PS");
  }
}

// ----------------------------------------------------------------- golden --

// Every named system's per-layer decision (scheme label, codec suffix) and
// its headline timing and traffic, on the five Table 3 models at 1, 2 and 8
// nodes over 10 GbE, must reproduce tests/golden/sim_decisions.txt byte for
// byte. A legitimate change to a decision or to the simulator regenerates it
// with POSEIDON_REGEN_GOLDEN=1.
std::string SimDecisionLine(const ModelSpec& model, const SimResult& result) {
  double tx_gbits = 0.0;
  for (double gbits : result.tx_gbits_per_iter) {
    tx_gbits += gbits;
  }
  char head[160];
  std::snprintf(head, sizeof(head), "iter_s=%.17g tx_bytes=%.17g", result.iter_time_s,
                tx_gbits * 1e9 / 8.0);
  std::string line = result.system + " " + model.name + " n=" +
                     std::to_string(result.num_nodes) + " " + head;
  for (const LayerSpec& layer : model.layers) {
    line += " " + layer.name + "=" + result.layer_schemes.at(layer.name);
  }
  return line;
}

TEST(SimDecisionGoldenTest, NamedSystemsReproduceCommittedDecisions) {
  const char* dir = std::getenv("POSEIDON_GOLDEN_DIR");
  ASSERT_NE(dir, nullptr) << "POSEIDON_GOLDEN_DIR not set (ctest sets it)";
  const std::string path = std::string(dir) + "/sim_decisions.txt";

  const std::vector<SystemConfig> systems = {
      CaffePlusPs(),
      CaffePlusWfbp(),
      PoseidonSystem(),
      TfNative(),
      TfPlusWfbp(),
      AdamSystem(),
      OneBitSystem(),
      SfbOnlySystem(),
      RingAllreduceSystem(),
      TreeAllreduceSystem(),
      HybridCollectiveSystem(),
      ShardedPsSystem(4),
      SspPoseidonSystem(2),
      CompressedPsSystem(PlanCodecPolicy::kFp16),
      CompressedPsSystem(PlanCodecPolicy::kInt8),
      CompressedPsSystem(PlanCodecPolicy::kTopK),
      CompressedPsSystem(PlanCodecPolicy::kAuto),
  };
  std::string text;
  for (const char* name : {"googlenet", "inception-v3", "vgg19", "vgg19-22k", "resnet-152"}) {
    const ModelSpec model = ModelByName(name).value();
    for (int nodes : {1, 2, 8}) {
      for (const SystemConfig& system : systems) {
        text += SimDecisionLine(model, RunProtocolSimulation(model, system, Cluster(nodes, 10.0),
                                                             Engine::kCaffe));
        text += "\n";
      }
    }
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
  // Line-wise first, so a drift names the system, model and node count.
  std::istringstream want(expected);
  std::istringstream got(text);
  std::string want_line;
  std::string got_line;
  while (std::getline(want, want_line) && std::getline(got, got_line)) {
    ASSERT_EQ(want_line, got_line) << "simulator decision drifted from the committed golden";
  }
  EXPECT_EQ(expected, text) << "line count drifted; regenerate with POSEIDON_REGEN_GOLDEN=1 "
                               "only if the change is intentional";
}

TEST(ProtocolSimTest, CompressedRunsStayDeterministic) {
  const ModelSpec model = MakeVgg19();
  const SystemConfig system = CompressedPsSystem(PlanCodecPolicy::kInt8);
  const SimResult a =
      RunProtocolSimulation(model, system, Cluster(8, 10.0), Engine::kCaffe);
  const SimResult b =
      RunProtocolSimulation(model, system, Cluster(8, 10.0), Engine::kCaffe);
  EXPECT_DOUBLE_EQ(a.iter_time_s, b.iter_time_s);
  EXPECT_EQ(a.tx_gbits_per_iter, b.tx_gbits_per_iter);
}

}  // namespace
}  // namespace poseidon
