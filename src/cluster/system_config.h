// The distributed-training systems compared in the evaluation, expressed as
// combinations of three orthogonal mechanisms:
//   * overlap    — when layer synchronization may run relative to compute
//                  (§3.1: none / WFBP / TF's fetch-at-iteration-start),
//   * sharding   — how parameters map to PS shards (Poseidon's 2 MB KV pairs
//                  vs TensorFlow's one-server-per-tensor),
//   * scheme     — what bytes move per layer: a PlanPolicy + PlanCodecPolicy
//                  pair (dense PS, SFB, Adam's SF-push + matrix-pull, CNTK's
//                  1-bit quantization, HybComm's per-layer best choice, the
//                  collectives, compressed PS) that the CommPlanner's paper
//                  mode turns into per-layer assignments.
#ifndef POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_
#define POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/models/comm_cost.h"
#include "src/planner/comm_plan.h"
#include "src/planner/comm_planner.h"

namespace poseidon {

enum class OverlapMode {
  kNone,     // synchronize sequentially after the full backward pass
  kWfbp,     // per-layer sync as soon as the layer's gradient exists
  kTfFetch,  // pushes overlap backward; pulls wait for the iteration boundary
};

enum class ShardingMode {
  kKvPairs,    // parameters hashed into fixed-size KV pairs over all servers
  kPerTensor,  // each layer owned by one server (TensorFlow's partitioning)
};

struct SystemConfig {
  std::string name;
  OverlapMode overlap = OverlapMode::kWfbp;
  ShardingMode sharding = ShardingMode::kKvPairs;
  // What each layer moves: the scheme policy and PS codec policy of a
  // paper-mode plan request over the simulated cluster (the simulator never
  // decides; it prices the plan). A fixed codec applies to every PS layer
  // clearing `compression_min_floats`; kAuto picks per layer by the byte
  // rows. Compressed pushes also charge the encoder's CPU pass (same aux
  // engine as the 1-bit row). See docs/COMPRESSION.md.
  PlanPolicy policy = PlanPolicy::kDense;
  PlanCodecPolicy codec = PlanCodecPolicy::kNone;
  // Fraction of wire bandwidth the system's transport sustains. Default 0.6:
  // sustained bidirectional TCP goodput on 40 GbE NICs (kernel stack + PCIe
  // contention) is well below line rate even for an efficient socket layer
  // like Poseidon's. TensorFlow r0.10's gRPC stack measured lower still
  // (serialization and extra copies), which is part of why native TF "fails
  // to scale" on large dense layers (§5.1, Fig 6).
  double transport_efficiency = 0.6;
  // BSP straggler policy (§4.1): when true, a shard broadcasts once P-1 of P
  // workers contributed (the slowest worker's update is dropped for the
  // iteration); SFB receivers likewise proceed one peer short.
  bool drop_stragglers = false;
  // Key-range KV shard endpoints per server node. Each shard applies updates
  // on its own thread, so the server-side apply path parallelizes by this
  // factor; NIC traffic is unchanged (the same bytes spread over more
  // endpoints).
  int shards_per_server = 1;
  // SSP staleness bound: a worker may start iteration t once iteration
  // t - 1 - staleness of every layer is synchronized, instead of t - 1
  // (BSP). Hides stragglers and sync-tail latency at the cost of stale
  // gradients; 0 reproduces BSP timing exactly.
  int staleness = 0;
  // ---- fault model (mirrors the live transport's fault fabric; see
  // docs/FAULT_TOLERANCE.md). The modeled link layer is reliable: a lost
  // message is retransmitted, so loss costs time and bytes, never data.
  // Per-message wire loss probability. Modeled in expectation (the simulator
  // stays deterministic): every message's bytes inflate by 1/(1 - p) and its
  // delivery gains the expected retransmit latency p/(1 - p) * RTO.
  double loss_rate = 0.0;
  // Link-layer retransmit timeout charged per expected retransmission.
  double retransmit_timeout_s = 200e-6;
  // Crash-recovery episode costs (both zero = no failure model): suspicion
  // deadline of the heartbeat failure detector, plus worker restart +
  // checkpoint rehydration. The simulation charges one in-flight-iteration
  // replay on top and credits what the SSP bound lets survivors absorb
  // (SimResult::recovery_stall_s).
  double detect_timeout_s = 0.0;
  double restart_s = 0.0;
  // ---- knobs of the codec policy above (mirror TrainerOptions).
  double topk_density = 0.01;
  int64_t compression_min_floats = kCompressionMinFloats;
  // ---- An explicit CommPlan (PlannedSystem). Its assignments, looked up by
  // layer name, override the policy/codec plan above; shards/staleness
  // were copied from it by PlannedSystem(). Layers it does not name
  // keep the policy/codec plan's assignment.
  std::shared_ptr<const CommPlan> plan;
};

// The named systems from Figures 5-11.
SystemConfig CaffePlusPs();       // "Caffe+PS"
SystemConfig CaffePlusWfbp();     // "Caffe+WFBP"
SystemConfig PoseidonSystem();    // "Poseidon" (WFBP + HybComm)
SystemConfig TfNative();          // "TF" (distributed TensorFlow)
SystemConfig TfPlusWfbp();        // "TF+WFBP"
SystemConfig AdamSystem();        // Project Adam's communication strategy
SystemConfig OneBitSystem();      // CNTK-style 1-bit quantization
SystemConfig SfbOnlySystem();     // pure SFB for every FC layer
SystemConfig RingAllreduceSystem();    // ring allreduce for every layer
SystemConfig TreeAllreduceSystem();    // binary-tree allreduce for every layer
SystemConfig HybridCollectiveSystem(); // Poseidon++ three-way HybComm
// Sharded-PS / SSP extensions of the dense-PS WFBP system: `shards` KV shard
// endpoints per server and an SSP bound of `staleness` iterations.
SystemConfig ShardedPsSystem(int shards, int staleness = 0);
// Poseidon (WFBP + HybComm) running under an SSP bound.
SystemConfig SspPoseidonSystem(int staleness, int shards = 1);
// Dense-PS WFBP with the PS path compressed under `codec` (kAuto: per layer
// by the byte rows); topk density as configured.
SystemConfig CompressedPsSystem(PlanCodecPolicy codec, double topk_density = 0.01);
// WFBP system driven by a CommPlan: per-layer schemes/codecs from the plan's
// assignments, shard count / staleness / top-k density from its global
// knobs. This is what `--plan=auto` and `--plan=fixed:<path>`
// simulate.
SystemConfig PlannedSystem(std::shared_ptr<const CommPlan> plan);

}  // namespace poseidon

#endif  // POSEIDON_SRC_CLUSTER_SYSTEM_CONFIG_H_
