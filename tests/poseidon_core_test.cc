// Tests for the coordinator's information book and KV partition plan, the
// per-layer plan the runtime builds from it, and the FlatParamView the KV
// machinery is built on.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"
#include "src/nn/builders.h"
#include "src/nn/layers.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/flat_params.h"
#include "src/poseidon/trainer.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

using testing::SmallClusterInfo;

// The plan the runtime executes for `coordinator`'s model and cluster under
// the paper-mode `policy`.
std::shared_ptr<const CommPlan> PlanFor(const Coordinator& coordinator, PlanPolicy policy) {
  const ClusterInfo& cluster = coordinator.cluster();
  TrainerOptions options;
  options.num_workers = cluster.num_workers;
  options.num_servers = cluster.num_servers;
  options.shards_per_server = cluster.shards_per_server;
  options.batch_per_worker = cluster.batch_per_worker;
  options.kv_pair_bytes = cluster.kv_pair_bytes;
  options.fc_policy = policy;
  return RuntimePlan(coordinator, options);
}

PlannedScheme SchemeOf(const CommPlan& plan, int l) {
  return plan.layers[static_cast<size_t>(l)].scheme;
}

TEST(CoordinatorTest, QueryInformationBook) {
  Rng rng(1);
  auto net = BuildMlp(64, 32, 2, 10, rng);
  Coordinator coordinator(*net, SmallClusterInfo(4, 2, 16));
  EXPECT_EQ(coordinator.Query("n_worker").value(), 4);
  EXPECT_EQ(coordinator.Query("n_server").value(), 2);
  EXPECT_EQ(coordinator.Query("batchsize").value(), 16);
  EXPECT_EQ(coordinator.Query("n_layer").value(), net->num_layers());
  EXPECT_FALSE(coordinator.Query("bogus").ok());
}

TEST(CoordinatorTest, PairsCoverEveryParameterExactlyOnce) {
  Rng rng(2);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  ClusterInfo cluster = SmallClusterInfo(2, 3, 8, /*kv_bytes=*/4096);
  cluster.shards_per_server = 2;
  Coordinator coordinator(*net, cluster);
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    int64_t covered = 0;
    int64_t expected_offset = 0;
    for (const KvPairInfo& pair : info.pairs) {
      EXPECT_EQ(pair.offset, expected_offset);
      EXPECT_GT(pair.length, 0);
      EXPECT_GE(pair.server, 0);
      EXPECT_LT(pair.server, 3);
      expected_offset += pair.length;
      covered += pair.length;
    }
    EXPECT_EQ(covered, info.total_floats);
  }

  // What the endpoints serve under each scheme: under kPS and kOneBit every
  // float of a layer is served exactly once across all endpoints (a 1-bit
  // layer on exactly one of them); no other scheme is served at all.
  for (PlannedScheme scheme : {PlannedScheme::kPS, PlannedScheme::kOneBit, PlannedScheme::kSFB,
                               PlannedScheme::kRing, PlannedScheme::kTree,
                               PlannedScheme::kNone}) {
    SCOPED_TRACE(PlannedSchemeName(scheme));
    const bool served = scheme == PlannedScheme::kPS || scheme == PlannedScheme::kOneBit;
    for (int l = 0; l < coordinator.num_layers(); ++l) {
      const LayerInfo& info = coordinator.layer(l);
      if (scheme == PlannedScheme::kOneBit && info.fc_m == 0) {
        continue;  // 1-bit serves FC layers only
      }
      std::vector<int> hits(static_cast<size_t>(info.total_floats), 0);
      int endpoints = 0;
      for (int server = 0; server < cluster.num_servers; ++server) {
        for (int shard = 0; shard < cluster.shards_per_server; ++shard) {
          const std::vector<KvPairInfo> pairs =
              coordinator.ServedPairs(l, scheme, server, shard);
          endpoints += pairs.empty() ? 0 : 1;
          for (const KvPairInfo& pair : pairs) {
            EXPECT_EQ(pair.layer, l);
            EXPECT_EQ(pair.server, server);
            EXPECT_EQ(pair.shard, shard);
            ASSERT_GE(pair.offset, 0);
            ASSERT_LE(pair.offset + pair.length, info.total_floats);
            for (int64_t i = pair.offset; i < pair.offset + pair.length; ++i) {
              ++hits[static_cast<size_t>(i)];
            }
          }
        }
      }
      for (int hit : hits) {
        ASSERT_EQ(hit, served ? 1 : 0) << "layer " << info.name;
      }
      if (!served) {
        EXPECT_EQ(endpoints, 0) << "layer " << info.name;
      } else if (scheme == PlannedScheme::kOneBit) {
        EXPECT_EQ(endpoints, 1) << "layer " << info.name;
      }
    }
  }
}

TEST(CoordinatorTest, KvPairsBalanceServerLoad) {
  // The point of fine-grained KV pairs (§5.1): no shard should hold much
  // more than its share, even when one tensor dominates the model.
  Rng rng(3);
  auto net = BuildMlp(/*input_dim=*/2048, /*hidden_dim=*/512, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  const int servers = 4;
  Coordinator coordinator(*net, SmallClusterInfo(4, servers, 8, /*kv_bytes=*/8192));
  const std::vector<int64_t> load = coordinator.ServerLoadFloats();
  const int64_t max = *std::max_element(load.begin(), load.end());
  const int64_t min = *std::min_element(load.begin(), load.end());
  EXPECT_LT(static_cast<double>(max) / static_cast<double>(min), 1.1);
}

TEST(RuntimePlanTest, HybridPolicyUsesAlgorithm1) {
  Rng rng(4);
  // Wide FC layers, tiny batch: SFB should win on multiple workers.
  auto net = BuildMlp(/*input_dim=*/4096, /*hidden_dim=*/1024, /*hidden_layers=*/1,
                      /*classes=*/10, rng);
  Coordinator multi(*net, SmallClusterInfo(8, 8, 8));
  const std::shared_ptr<const CommPlan> multi_plan = PlanFor(multi, PlanPolicy::kHybrid);
  bool any_sfb = false;
  for (int l = 0; l < multi.num_layers(); ++l) {
    if (multi.layer(l).type == LayerType::kFC &&
        SchemeOf(*multi_plan, l) == PlannedScheme::kSFB) {
      any_sfb = true;
    }
  }
  EXPECT_TRUE(any_sfb);

  // Single worker: everything through the PS.
  Coordinator single(*net, SmallClusterInfo(1, 1, 8));
  const std::shared_ptr<const CommPlan> single_plan = PlanFor(single, PlanPolicy::kHybrid);
  for (int l = 0; l < single.num_layers(); ++l) {
    if (single.layer(l).total_floats > 0) {
      EXPECT_EQ(SchemeOf(*single_plan, l), PlannedScheme::kPS);
    }
  }
}

TEST(RuntimePlanTest, LayersAreFoundByName) {
  Rng rng(5);
  auto net = BuildMlp(64, 32, 1, 4, rng);
  Coordinator coordinator(*net, SmallClusterInfo(2, 2, 8));
  const std::shared_ptr<const CommPlan> plan = PlanFor(coordinator, PlanPolicy::kHybrid);
  EXPECT_NE(plan->Find("fc1"), nullptr);
  EXPECT_EQ(plan->Find("nope"), nullptr);
}

TEST(RuntimePlanTest, ResolvesPolicies) {
  Rng rng(6);
  auto net = BuildCifarQuick(3, 16, 10, rng);
  Coordinator coordinator(*net, SmallClusterInfo(4, 4, 8));

  const std::shared_ptr<const CommPlan> dense = PlanFor(coordinator, PlanPolicy::kDense);
  const std::shared_ptr<const CommPlan> sfb = PlanFor(coordinator, PlanPolicy::kSfb);
  const std::shared_ptr<const CommPlan> onebit = PlanFor(coordinator, PlanPolicy::kOneBit);
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    if (info.total_floats == 0) {
      EXPECT_EQ(SchemeOf(*dense, l), PlannedScheme::kNone);
      EXPECT_EQ(SchemeOf(*sfb, l), PlannedScheme::kNone);
    } else if (info.type == LayerType::kFC) {
      EXPECT_EQ(SchemeOf(*dense, l), PlannedScheme::kPS);
      EXPECT_EQ(SchemeOf(*sfb, l), PlannedScheme::kSFB);
      EXPECT_EQ(SchemeOf(*onebit, l), PlannedScheme::kOneBit);
    } else {
      EXPECT_EQ(SchemeOf(*dense, l), PlannedScheme::kPS);
      EXPECT_EQ(SchemeOf(*sfb, l), PlannedScheme::kPS);  // conv never broadcasts
    }
  }
}

TEST(FlatParamViewTest, GatherScatterRoundTrip) {
  Rng rng(7);
  FullyConnectedLayer fc("fc", 4, 6, rng);
  FlatParamView view(fc.Params());
  EXPECT_EQ(view.size(), 4 * 6 + 4);

  std::vector<float> values(static_cast<size_t>(view.size()));
  view.GatherValueSlice(0, values.data(), view.size());
  for (float& v : values) {
    v += 1.0f;
  }
  view.ScatterValueSlice(0, values.data(), view.size());
  std::vector<float> back(values.size());
  view.GatherValueSlice(0, back.data(), view.size());
  EXPECT_EQ(back, values);
}

TEST(FlatParamViewTest, SlicesSpanBlockBoundaries) {
  Rng rng(8);
  FullyConnectedLayer fc("fc", 2, 3, rng);  // weight 6 floats + bias 2 floats
  FlatParamView view(fc.Params());
  ASSERT_EQ(view.size(), 8);
  // A slice [4, 8) covers the last 2 weight floats and both bias floats.
  std::vector<float> slice(4);
  view.GatherValueSlice(4, slice.data(), 4);
  std::vector<float> all(8);
  view.GatherValueSlice(0, all.data(), 8);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(slice[static_cast<size_t>(i)], all[static_cast<size_t>(4 + i)]);
  }
  // Scatter through the same boundary.
  slice = {10.0f, 11.0f, 12.0f, 13.0f};
  view.ScatterValueSlice(4, slice.data(), 4);
  view.GatherValueSlice(0, all.data(), 8);
  EXPECT_EQ(all[5], 11.0f);
  EXPECT_EQ(all[7], 13.0f);
}

TEST(FlatParamViewTest, GradGatherReadsGradients) {
  Rng rng(9);
  FullyConnectedLayer fc("fc", 2, 2, rng);
  fc.weight_grad().Fill(3.0f);
  FlatParamView view(fc.Params());
  std::vector<float> grads(static_cast<size_t>(view.size()));
  view.GatherGradSlice(0, grads.data(), view.size());
  EXPECT_EQ(grads[0], 3.0f);
  EXPECT_EQ(grads[3], 3.0f);
  EXPECT_EQ(grads[4], 0.0f);  // bias grad untouched
}

}  // namespace
}  // namespace poseidon
