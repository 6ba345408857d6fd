// Cluster planner: capacity-planning for a training job before buying the
// hardware. Given a Table 3 model, a node count and a per-node bandwidth, it
// prints (a) HybComm's per-layer scheme decisions with the Table 1 cost
// arithmetic, and (b) the simulated throughput of Poseidon vs a plain PS on
// that cluster.
//
//   ./cluster_planner [model] [nodes] [gbps]
//   ./cluster_planner vgg19 16 10
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/cluster/protocol_sim.h"
#include "src/common/table.h"
#include "src/common/units.h"
#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/planner/comm_planner.h"

int main(int argc, char** argv) {
  using namespace poseidon;

  const std::string model_name = argc > 1 ? argv[1] : "vgg19";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 16;
  const double gbps = argc > 3 ? std::atof(argv[3]) : 10.0;

  const auto model_or = ModelByName(model_name);
  if (!model_or.ok()) {
    std::fprintf(stderr, "unknown model '%s' (try: googlenet, vgg19, vgg19-22k, "
                         "inception-v3, resnet-152, alexnet, cifar-quick)\n",
                 model_name.c_str());
    return 1;
  }
  const ModelSpec model = *model_or;
  const int batch = model.default_batch;

  std::printf("%s\n", model.Summary().c_str());
  std::printf("Cluster: %d nodes (colocated worker + KV shard), %.0f GbE, batch %d/node\n\n",
              nodes, gbps, batch);

  // HybComm's decisions: the planner's paper mode under Algorithm 1.
  const CommPlan plan = PlanComm(PaperRequest(model, nodes, batch, PlanPolicy::kHybrid));
  TextTable table({"layer", "type", "params", "PS both (MB)", "SFB (MB)", "chosen"});
  double ps_total = 0.0;
  double chosen_total = 0.0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const LayerSpec& layer = model.layers[l];
    const PlannedScheme scheme = plan.layers[l].scheme;
    double ps_mb = 0.0;
    double sfb_mb = 0.0;
    if (layer.type == LayerType::kFC && nodes > 1) {
      CommCostQuery q{layer.fc_m, layer.fc_n, batch, nodes, nodes};
      ps_mb = PsColocatedFloats(q) * 4 / 1e6;
      sfb_mb = SfbWorkerFloats(q) * 4 / 1e6;
    } else {
      ps_mb = 2.0 * static_cast<double>(layer.param_bytes()) * (2 * nodes - 2) / nodes / 1e6;
      sfb_mb = ps_mb;  // not applicable; PS is used
    }
    ps_total += ps_mb;
    chosen_total += scheme == PlannedScheme::kSFB ? sfb_mb : ps_mb;
    table.AddRow({layer.name, LayerTypeName(layer.type), std::to_string(layer.params),
                  TextTable::Num(ps_mb, 1), TextTable::Num(sfb_mb, 1),
                  PlannedSchemeName(scheme)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Per-node traffic per iteration: pure PS %.0f MB -> HybComm %.0f MB (%.1fx less)\n\n",
              ps_total, chosen_total, ps_total / std::max(chosen_total, 1e-9));

  ClusterSpec cluster;
  cluster.num_nodes = nodes;
  cluster.nic_gbps = gbps;
  const SimResult ps =
      RunProtocolSimulation(model, CaffePlusWfbp(), cluster, Engine::kCaffe);
  const SimResult poseidon =
      RunProtocolSimulation(model, PoseidonSystem(), cluster, Engine::kCaffe);
  std::printf("Predicted throughput (simulated):\n");
  std::printf("  PS + WFBP : %7.1f img/s  (speedup %.1fx of linear %d)\n",
              ps.images_per_sec, ps.speedup, nodes);
  std::printf("  Poseidon  : %7.1f img/s  (speedup %.1fx of linear %d)\n",
              poseidon.images_per_sec, poseidon.speedup, nodes);
  return 0;
}
