#include "src/cluster/system_config.h"

#include <string>

namespace poseidon {

SystemConfig CaffePlusPs() {
  SystemConfig config;
  config.name = "Caffe+PS";
  config.overlap = OverlapMode::kNone;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kDense;
  return config;
}

SystemConfig CaffePlusWfbp() {
  SystemConfig config;
  config.name = "Caffe+WFBP";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kDense;
  return config;
}

SystemConfig PoseidonSystem() {
  SystemConfig config;
  config.name = "Poseidon";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kHybrid;
  return config;
}

SystemConfig TfNative() {
  SystemConfig config;
  config.name = "TF";
  config.overlap = OverlapMode::kTfFetch;
  config.sharding = ShardingMode::kPerTensor;
  config.policy = PlanPolicy::kDense;
  config.transport_efficiency = 0.3;  // gRPC goodput, r0.10 era
  return config;
}

SystemConfig TfPlusWfbp() {
  SystemConfig config;
  config.name = "TF+WFBP";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kDense;
  return config;
}

SystemConfig AdamSystem() {
  SystemConfig config;
  config.name = "Adam";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kAdam;
  return config;
}

SystemConfig OneBitSystem() {
  SystemConfig config;
  config.name = "CNTK-1bit";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kOneBit;
  return config;
}

SystemConfig SfbOnlySystem() {
  SystemConfig config;
  config.name = "SFB";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kSfb;
  return config;
}

SystemConfig RingAllreduceSystem() {
  SystemConfig config;
  config.name = "Ring";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kRingAllreduce;
  return config;
}

SystemConfig TreeAllreduceSystem() {
  SystemConfig config;
  config.name = "Tree";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kTreeAllreduce;
  return config;
}

SystemConfig HybridCollectiveSystem() {
  SystemConfig config;
  config.name = "Poseidon++";
  config.overlap = OverlapMode::kWfbp;
  config.sharding = ShardingMode::kKvPairs;
  config.policy = PlanPolicy::kHybridCollective;
  return config;
}

SystemConfig ShardedPsSystem(int shards, int staleness) {
  SystemConfig config = CaffePlusWfbp();
  config.name = "PS-s" + std::to_string(shards) +
                (staleness > 0 ? "-ssp" + std::to_string(staleness) : "");
  config.shards_per_server = shards;
  config.staleness = staleness;
  return config;
}

SystemConfig SspPoseidonSystem(int staleness, int shards) {
  SystemConfig config = PoseidonSystem();
  config.name = "Poseidon-ssp" + std::to_string(staleness) +
                (shards > 1 ? "-s" + std::to_string(shards) : "");
  config.shards_per_server = shards;
  config.staleness = staleness;
  return config;
}

SystemConfig CompressedPsSystem(PlanCodecPolicy codec, double topk_density) {
  SystemConfig config = CaffePlusWfbp();
  config.name = std::string("PS-") + PlanCodecPolicyName(codec);
  config.codec = codec;
  config.topk_density = topk_density;
  return config;
}

SystemConfig PlannedSystem(std::shared_ptr<const CommPlan> plan) {
  SystemConfig config = PoseidonSystem();
  config.name = "Planned";
  config.shards_per_server = plan->ps_shards;
  config.staleness = plan->staleness;
  config.topk_density = plan->topk_density;
  config.plan = std::move(plan);
  return config;
}

}  // namespace poseidon
