// Ablation benches for the design choices DESIGN.md calls out:
//
//  A. Overlap (WFBP) alone vs no overlap — how much of Poseidon's win is
//     scheduling, independent of HybComm (paper §3.1 / Fig 5's PS-vs-WFBP
//     gap isolated per bandwidth).
//  B. KV sharding granularity — Poseidon's fine-grained 2 MB pairs vs
//     TensorFlow's per-tensor placement, holding everything else fixed
//     (paper §5.1's first explanation of TF's stalls).
//  C. Straggler policy — BSP gated by the slowest worker vs the paper's
//     drop-the-straggler rule (§4.1), under an injected 2x straggler.
#include <cstdio>

#include "src/cluster/protocol_sim.h"
#include "src/common/cli.h"
#include "src/common/table.h"
#include "src/models/zoo.h"

namespace poseidon {
namespace {

void OverlapAblation(const BenchArgs& args) {
  const int nodes = args.FirstNodeOr(16);
  std::printf("Ablation A: overlap only (no HybComm), VGG19, %d nodes\n\n", nodes);
  TextTable table({"GbE", "no overlap (img/s)", "WFBP (img/s)", "WFBP gain"});
  const ModelSpec model = MakeVgg19();
  for (double gbps : args.GbpsOr({10.0, 20.0, 40.0})) {
    ClusterSpec cluster;
    cluster.num_nodes = nodes;
    cluster.nic_gbps = gbps;
    const SimResult seq =
        RunProtocolSimulation(model, CaffePlusPs(), cluster, Engine::kCaffe);
    const SimResult wfbp =
        RunProtocolSimulation(model, CaffePlusWfbp(), cluster, Engine::kCaffe);
    table.AddRow({TextTable::Num(gbps, 0), TextTable::Num(seq.images_per_sec, 0),
                  TextTable::Num(wfbp.images_per_sec, 0),
                  TextTable::Num(wfbp.images_per_sec / seq.images_per_sec, 2) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void ShardingAblation(const BenchArgs& args) {
  const int nodes = args.FirstNodeOr(16);
  const double gbps = args.FirstGbpsOr(40.0);
  std::printf("Ablation B: KV-pair sharding vs per-tensor placement (WFBP overlap,\n");
  std::printf("dense PS), %d nodes, %.0f GbE\n\n", nodes, gbps);
  TextTable table({"model", "per-tensor (img/s)", "KV pairs (img/s)", "gain"});
  for (const char* name : {"googlenet", "vgg19", "vgg19-22k"}) {
    const ModelSpec model = ModelByName(name).value();
    ClusterSpec cluster;
    cluster.num_nodes = nodes;
    cluster.nic_gbps = gbps;
    SystemConfig per_tensor = TfPlusWfbp();
    per_tensor.name = "per-tensor";
    per_tensor.sharding = ShardingMode::kPerTensor;
    const SimResult coarse =
        RunProtocolSimulation(model, per_tensor, cluster, Engine::kTensorFlow);
    const SimResult fine =
        RunProtocolSimulation(model, TfPlusWfbp(), cluster, Engine::kTensorFlow);
    table.AddRow({model.name, TextTable::Num(coarse.images_per_sec, 0),
                  TextTable::Num(fine.images_per_sec, 0),
                  TextTable::Num(fine.images_per_sec / coarse.images_per_sec, 2) + "x"});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void StragglerAblation(const BenchArgs& args) {
  const int nodes = args.FirstNodeOr(8);
  const double gbps = args.FirstGbpsOr(40.0);
  std::printf("Ablation C: straggler policy, GoogLeNet on %d nodes (one node slowed)\n\n",
              nodes);
  TextTable table({"slowdown", "BSP wait (img/s)", "drop straggler (img/s)"});
  const ModelSpec model = MakeGoogLeNet();
  for (double slowdown : {1.0, 1.5, 2.0, 4.0}) {
    ClusterSpec cluster;
    cluster.num_nodes = nodes;
    cluster.nic_gbps = gbps;
    cluster.straggler_node = nodes - 1;  // not node 0: node 0 is the timing reference
    cluster.straggler_slowdown = slowdown;
    SystemConfig drop = PoseidonSystem();
    drop.drop_stragglers = true;
    const SimResult wait =
        RunProtocolSimulation(model, PoseidonSystem(), cluster, Engine::kCaffe);
    const SimResult dropped = RunProtocolSimulation(model, drop, cluster, Engine::kCaffe);
    table.AddRow({TextTable::Num(slowdown, 1), TextTable::Num(wait.images_per_sec, 0),
                  TextTable::Num(dropped.images_per_sec, 0)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  poseidon::OverlapAblation(args);
  poseidon::ShardingAblation(args);
  poseidon::StragglerAblation(args);
  poseidon::FinishBenchTelemetry(args);
  return 0;
}
