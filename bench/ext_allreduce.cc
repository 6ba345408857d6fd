// Extension experiment: collective allreduce schemes (ring, binary tree) as
// first-class HybComm candidates, compared against the paper's PS and SFB.
//
// Part 1 extends Table 1 with the collective rows and self-verifies every
// printed value against the closed-form expressions (to 1e-6):
//   ring: 2*M*N*(P-1)/P floats per worker (per direction),
//   tree: M*N / 2*M*N / 3*M*N for P = 2 / 3..4 / >= 5 at the busiest node.
// Expected shape: ring always undercuts the colocated PS row; SFB still wins
// for large FC layers (its rank-K messages scale with M+N, not M*N); the
// crossover against ring moves with P and the layer size.
//
// Part 2 sweeps the protocol simulator across node counts and bandwidths:
// PS-only, SFB-only, Poseidon (two-way HybComm), pure ring, pure tree, and
// Poseidon++ (three-way HybComm). Expected shape: on conv-heavy models
// (ResNet-152) ring beats the sharded PS once bandwidth is scarce, and
// Poseidon++ tracks the best of all curves; on VGG19-22K SFB still carries
// the giant FC layers. The per-layer choices of Poseidon++ are printed for
// the largest swept cluster.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "src/common/cli.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/stats/report.h"

namespace poseidon {
namespace {

// Closed-form Table-1-extension rows, kept deliberately separate from the
// implementation in comm_cost.cc so the table is cross-checked, not
// self-checked.
double AnalyticRingFloats(double mn, int p) { return 2.0 * mn * (p - 1) / p; }

double AnalyticTreeFloats(double mn, int p) {
  if (p < 2) {
    return 0.0;
  }
  if (p == 2) {
    return mn;
  }
  return p <= 4 ? 2.0 * mn : 3.0 * mn;
}

void CheckClose(double got, double want, const char* what) {
  const double scale = std::max(1.0, std::abs(want));
  CHECK_LT(std::abs(got - want) / scale, 1e-6)
      << what << ": got " << got << ", want " << want;
}

struct CostRow {
  const char* label;
  LayerSpec layer;
  int64_t batch_k;
};

void CostTablePart(const std::vector<int>& workers) {
  std::printf("Table 1 extension: per-worker floats (millions) per iteration,\n");
  std::printf("P colocated worker+server nodes. best = three-way HybComm choice.\n\n");

  const std::vector<CostRow> rows = {
      {"fc 4096x4096", FcLayer("fc7", 4096, 4096), 32},
      {"fc 4096x25088", FcLayer("fc6", 4096, 25088), 32},
      {"fc 1000x1024", FcLayer("cls", 1000, 1024), 128},
      // A ResNet-style conv block: dense, indecomposable gradient.
      {"conv 2.36M", ConvLayer("res5", 512, 512, 3, 7), 32},
  };

  TextTable table({"layer", "K", "P", "PS.both", "SFB.wrk", "Ring.wrk", "Tree.max", "best"});
  for (const CostRow& row : rows) {
    for (int p : workers) {
      if (p < 2) {
        continue;  // collectives need peers
      }
      CommCostQuery q;
      q.m = row.layer.type == LayerType::kFC ? row.layer.fc_m : row.layer.params;
      q.n = row.layer.type == LayerType::kFC ? row.layer.fc_n : 1;
      q.batch_k = row.batch_k;
      q.num_workers = p;
      q.num_servers = p;

      const double mn = static_cast<double>(q.m) * static_cast<double>(q.n);
      const double ring = RingAllreduceWorkerFloats(q);
      const double tree = TreeAllreduceWorkerFloats(q);
      CheckClose(ring, AnalyticRingFloats(mn, p), "ring row");
      CheckClose(tree, AnalyticTreeFloats(mn, p), "tree row");
      CheckClose(PsColocatedFloats(q), 2.0 * mn * (2 * p - 2) / p, "PS row");
      if (row.layer.type == LayerType::kFC) {
        CheckClose(SfbWorkerFloats(q),
                   2.0 * static_cast<double>(q.batch_k) * (p - 1) *
                       static_cast<double>(q.m + q.n),
                   "SFB row");
      }

      // The planner's three-way paper-mode pick for this one-layer model.
      ModelSpec one;
      one.name = row.label;
      one.layers = {row.layer};
      const CommPlan plan =
          PlanComm(PaperRequest(one, p, row.batch_k, PlanPolicy::kHybridCollective));
      table.AddRow({row.label, std::to_string(row.batch_k), std::to_string(p),
                    TextTable::Num(PsColocatedFloats(q) / 1e6, 2),
                    row.layer.type == LayerType::kFC
                        ? TextTable::Num(SfbWorkerFloats(q) / 1e6, 2)
                        : std::string("-"),
                    TextTable::Num(ring / 1e6, 2), TextTable::Num(tree / 1e6, 2),
                    PlannedSchemeName(plan.layers[0].scheme)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void SimSweepPart(const BenchArgs& args, const std::vector<int>& nodes,
                  const std::vector<double>& bandwidths) {
  const std::vector<SystemConfig> systems = {
      CaffePlusWfbp(),       SfbOnlySystem(),       PoseidonSystem(),
      RingAllreduceSystem(), TreeAllreduceSystem(), HybridCollectiveSystem(),
  };
  for (const char* name : {"resnet-152", "vgg19-22k"}) {
    const ModelSpec model = ModelByName(name).value();
    for (double gbps : bandwidths) {
      // --plan=auto|fixed: the planner's joint choice replaces the
      // hand-enumerated scheme menu above.
      const auto results =
          RunPlannedScalingSweep(args, model, systems, nodes, gbps, Engine::kCaffe);
      char title[160];
      std::snprintf(title, sizeof(title),
                    "Allreduce extension: %s @ %.0f GbE (Caffe engine)",
                    model.name.c_str(), gbps);
      std::printf("%s\n", FormatSpeedupTable(title, results).c_str());
    }
    const std::string plan_summary =
        FormatPlanSummary(args, model, nodes.back(), bandwidths.front());
    if (!plan_summary.empty()) {
      std::printf("%s\n", plan_summary.c_str());
    }
  }

  // Show what the three-way chooser actually picked, per layer, at the
  // largest swept cluster and the lowest bandwidth.
  const int max_nodes = *std::max_element(nodes.begin(), nodes.end());
  if (max_nodes > 1) {
    ClusterSpec cluster;
    cluster.num_nodes = max_nodes;
    cluster.nic_gbps = *std::min_element(bandwidths.begin(), bandwidths.end());
    const ModelSpec model = ModelByName("resnet-152").value();
    const SimResult result = RunProtocolSimulation(model, HybridCollectiveSystem(), cluster,
                                                   Engine::kCaffe);
    std::map<std::string, int> counts;
    for (const auto& [layer, scheme] : result.layer_schemes) {
      ++counts[scheme];
    }
    std::printf("Poseidon++ per-layer choices, resnet-152 on %d nodes:", max_nodes);
    for (const auto& [scheme, count] : counts) {
      std::printf("  %s x%d", scheme.c_str(), count);
    }
    std::printf("\n\n");
  }
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  poseidon::InitBenchTelemetry(args);
  const std::vector<int> nodes = args.NodesOr({2, 4, 8, 16, 32, 64});
  poseidon::CostTablePart(nodes);
  poseidon::SimSweepPart(args, nodes, args.GbpsOr({10.0, 40.0}));
  poseidon::FinishBenchTelemetry(args);
  return 0;
}
