// Extension experiment: sharded parameter server with bounded staleness.
//
// Part 1 extends Table 1 with the multi-shard PS rows and self-verifies
// every printed value against the closed-form expressions (to 1e-6):
//   per-shard server endpoint: 2*P1*M*N/(P2*S) floats,
//   colocated worker + busiest endpoint: 2*M*N*(P1 + P2*S - 2)/(P2*S).
// Expected shape: the colocated row falls toward the pure-worker 2MN floor
// as S grows — sharding relieves the serve-path serialization, not the NIC —
// so the planner's shard pass saturates at the cap for P1 > 2 and stays at 1
// for P1 <= 2 where no served share exists to spread.
//
// Part 2 sweeps the protocol simulator over shard count x staleness x
// bandwidth on VGG19 (PS-heavy FC layers). Expected shape: more shards
// shorten the server apply tail (small effect at high bandwidth, visible at
// low); staleness converts the per-layer sync barrier into a bounded
// pipeline and mostly pays off when iterations are communication-dominated.
//
// Part 3 injects a persistent 1.5x straggler: BSP pays the slowdown every
// iteration, SSP absorbs it up to the bound and re-synchronizes, landing
// between BSP and the straggler-free run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/cli.h"
#include "src/common/logging.h"
#include "src/common/table.h"
#include "src/models/comm_cost.h"
#include "src/models/zoo.h"
#include "src/stats/bench_record.h"
#include "src/stats/report.h"
#include "src/transport/socket_bench.h"

namespace poseidon {
namespace {

// Closed-form multi-shard rows, kept deliberately separate from the
// implementation in comm_cost.cc so the table is cross-checked, not
// self-checked.
double AnalyticShardedServerFloats(double mn, int p1, int p2, int s) {
  return 2.0 * p1 * mn / (static_cast<double>(p2) * s);
}

double AnalyticShardedColocatedFloats(double mn, int p1, int p2, int s) {
  const double endpoints = static_cast<double>(p2) * s;
  return 2.0 * mn * (p1 + endpoints - 2.0) / endpoints;
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

void CostTablePart(const std::vector<int>& workers, const std::vector<int>& shards) {
  std::printf("Multi-shard PS rows: per-endpoint floats (millions) per iteration,\n");
  std::printf("P colocated worker+server nodes, S key-range shards per server.\n");
  std::printf("S* = BestPsShardCount cap 8; best = three-way HybComm choice at S.\n\n");

  const std::vector<CostRow> rows = {
      {"fc 4096x4096", FcLayer("fc7", 4096, 4096), 32},
      {"fc 4096x25088", FcLayer("fc6", 4096, 25088), 32},
      {"conv 2.36M", ConvLayer("res5", 512, 512, 3, 7), 32},
  };

  TextTable table(
      {"layer", "K", "P", "S", "PS.srv/S", "PS.both/S", "S*", "best@S"});
  for (const CostRow& row : rows) {
    for (int p : workers) {
      if (p < 2) {
        continue;  // a 1-node world has nothing to shard against
      }
      for (int s : shards) {
        CommCostQuery q;
        q.m = row.layer.type == LayerType::kFC ? row.layer.fc_m : row.layer.params;
        q.n = row.layer.type == LayerType::kFC ? row.layer.fc_n : 1;
        q.batch_k = row.batch_k;
        q.num_workers = p;
        q.num_servers = p;
        q.num_shards = s;

        const double mn = static_cast<double>(q.m) * static_cast<double>(q.n);
        const double srv = PsShardedServerFloats(q);
        const double both = PsShardedColocatedFloats(q);
        CheckClose(srv, AnalyticShardedServerFloats(mn, p, p, s), "sharded server row");
        CheckClose(both, AnalyticShardedColocatedFloats(mn, p, p, s),
                   "sharded colocated row");
        // At one shard the rows must collapse onto the paper's Table 1.
        CommCostQuery q1 = q;
        q1.num_shards = 1;
        CheckClose(PsShardedServerFloats(q1), PsServerFloats(q1), "S=1 server row");
        CheckClose(PsShardedColocatedFloats(q1), PsColocatedFloats(q1),
                   "S=1 colocated row");

        // The planner's paper mode on this one-layer model: the shard count
        // a dense PS searches up to 8, and the three-way pick at S.
        ModelSpec one;
        one.name = row.label;
        one.layers = {row.layer};
        PlanRequest shard_search = PaperRequest(one, p, row.batch_k, PlanPolicy::kDense);
        shard_search.ps_shards_pinned = 0;
        shard_search.max_shards = 8;
        const int best_s = PlanComm(shard_search).ps_shards;
        const CommPlan best =
            PlanComm(PaperRequest(one, p, row.batch_k, PlanPolicy::kHybridCollective,
                                  PlanCodecPolicy::kNone, s));
        table.AddRow({row.label, std::to_string(row.batch_k), std::to_string(p),
                      std::to_string(s), TextTable::Num(srv / 1e6, 2),
                      TextTable::Num(both / 1e6, 2), std::to_string(best_s),
                      PlannedSchemeName(best.layers[0].scheme)});
      }
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

void SimSweepPart(const BenchArgs& args, const std::vector<int>& nodes,
                  const std::vector<double>& bandwidths, const std::vector<int>& shards,
                  const std::vector<int>& staleness) {
  std::vector<SystemConfig> systems;
  for (int s : shards) {
    systems.push_back(ShardedPsSystem(s, /*staleness=*/0));
  }
  for (int stale : staleness) {
    if (stale > 0) {
      systems.push_back(ShardedPsSystem(shards.back(), stale));
    }
  }
  systems.push_back(PoseidonSystem());

  const ModelSpec model = ModelByName("vgg19").value();
  for (double gbps : bandwidths) {
    // --plan=auto|fixed: the planner's shard/staleness/codec choice replaces
    // the hand-enumerated shard x staleness grid above.
    const auto results =
        RunPlannedScalingSweep(args, model, systems, nodes, gbps, Engine::kCaffe);
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Sharded PS / SSP extension: %s @ %.0f GbE (Caffe engine)",
                  model.name.c_str(), gbps);
    std::printf("%s\n", FormatSpeedupTable(title, results).c_str());
  }
  const std::string plan_summary =
      FormatPlanSummary(args, model, nodes.back(), bandwidths.front());
  if (!plan_summary.empty()) {
    std::printf("%s\n", plan_summary.c_str());
  }
}

void StragglerPart(const std::vector<int>& nodes, double gbps,
                   const std::vector<int>& staleness) {
  const int p = *std::max_element(nodes.begin(), nodes.end());
  if (p < 2) {
    return;
  }
  const ModelSpec model = ModelByName("vgg19").value();
  ClusterSpec cluster;
  cluster.num_nodes = p;
  cluster.nic_gbps = gbps;

  TextTable table({"system", "straggler", "iter_ms", "vs clean"});
  const SimResult clean =
      RunProtocolSimulation(model, ShardedPsSystem(1, 0), cluster, Engine::kCaffe);
  cluster.straggler_node = 0;
  cluster.straggler_slowdown = 1.5;
  for (int stale : staleness) {
    const SimResult result =
        RunProtocolSimulation(model, ShardedPsSystem(1, stale), cluster, Engine::kCaffe);
    table.AddRow({result.system, "1.5x", TextTable::Num(result.iter_time_s * 1e3, 2),
                  TextTable::Num(result.iter_time_s / clean.iter_time_s, 3)});
  }
  std::printf("Persistent straggler, %d nodes @ %.0f GbE; clean BSP iter %.2f ms\n",
              p, gbps, clean.iter_time_s * 1e3);
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) {
  const poseidon::BenchArgs args = poseidon::ParseBenchArgs(argc, argv);
  const std::vector<int> nodes = args.NodesOr({4, 8, 16});
  const std::vector<int> shards = args.ShardsOr({1, 2, 4, 8});
  const std::vector<int> staleness = args.fast ? std::vector<int>{0, 1}
                                               : std::vector<int>{0, 1, 3};
  poseidon::InitBenchTelemetry(args);
  poseidon::BenchRecord record("ext_shards");
  // --transport=tcp|unix: the live socket probe's payload Gb/s joins the
  // sharded-PS sweep, so the shard/staleness tables include the bandwidth
  // this machine's sockets actually deliver.
  const double measured_gbps = poseidon::MeasureTransportForBench(args, &record);
  std::vector<double> bandwidths = args.GbpsOr({10.0, 40.0});
  if (measured_gbps > 0.0) {
    bandwidths.push_back(measured_gbps);
  }
  poseidon::CostTablePart(nodes, shards);
  poseidon::SimSweepPart(args, nodes, bandwidths, shards, staleness);
  poseidon::StragglerPart(nodes, bandwidths.front(), staleness);
  poseidon::FinishBenchTelemetry(args, &record);
  return 0;
}
