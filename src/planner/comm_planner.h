/// \file
/// CommPlanner: cost-model-driven search over the joint per-layer
/// communication space — scheme x KV shard count x wire codec x SSP
/// staleness — against the byte- and time-basis rows of
/// src/models/comm_cost.h.
///
/// Two search modes share one entry point (PlanComm):
///
///  * paper mode (`joint = false`): the paper's sequential decisions — the
///    policy's per-layer scheme (Algorithm 1 for kHybrid, the three-way
///    float-row argmin for kHybridCollective), then the shard count (the
///    busiest PS layer's best, when not pinned), then the codec of each PS
///    layer. The trainer's and ClusterNode's default configuration, every
///    named simulator system and the cost-table benches run this mode.
///  * joint mode (`joint = true`): per-layer argmin over the full
///    (scheme, codec) menu at every candidate shard count, on the byte
///    basis (nic_gbps == 0) or the time basis (nic_gbps > 0, adding
///    latency and encode-CPU terms), with dominance pruning: candidates
///    whose rows do not depend on the shard count are evaluated once per
///    layer and folded into every shard count's argmin, so the search is
///    exhaustive-equivalent at a fraction of the evaluations.
///
/// The search is pure closed-form arithmetic — no RNG, no clocks — so the
/// same request always yields a bitwise-identical plan (the PlanCache
/// memoization contract).
#ifndef POSEIDON_SRC_PLANNER_COMM_PLANNER_H_
#define POSEIDON_SRC_PLANNER_COMM_PLANNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/models/comm_cost.h"
#include "src/models/model_spec.h"
#include "src/planner/comm_plan.h"

namespace poseidon {

/// Scheme-policy constraint on the search: the one policy vocabulary of the
/// trainer (TrainerOptions::fc_policy), the simulator's named systems and
/// the benches. kAuto opens the full menu — what `--plan=auto` and the
/// replanner use. Under the paper's FC policies conv layers stay on the PS;
/// the collective policies apply to every parameter layer. Stateless layers
/// synchronize nothing either way.
enum class PlanPolicy {
  kAuto,              // full menu: PS (x codecs), SFB, ring, tree
  kDense,             // PS for every parameter layer
  kSfb,               // SFB for FC layers, PS for the rest
  kHybrid,            // Algorithm 1: PS vs SFB per FC layer
  kOneBit,            // 1-bit PS for FC layers
  kRingAllreduce,     // ring for every parameter layer
  kTreeAllreduce,     // tree for every parameter layer
  kHybridCollective,  // three-way PS vs SFB vs ring/tree per layer
  kAdam,              // Project Adam's SF push for FC layers (simulator only)
};

const char* PlanPolicyName(PlanPolicy policy);

/// Codec-policy constraint: which wire codecs the PS candidates may use. The
/// fixed codecs apply to every PS layer clearing compression_min_floats
/// (smaller layers stay raw, so a policy is a ceiling, not a mandate); kAuto
/// lets the byte rows pick per layer. Quantized trajectories are
/// deterministic but not bitwise equal to raw runs.
enum class PlanCodecPolicy { kNone, kFp16, kInt8, kTopK, kAuto };

const char* PlanCodecPolicyName(PlanCodecPolicy policy);

/// Everything the plan depends on. Two requests with equal PlanRequestKey
/// digests get the same cached plan, so every field that can change the
/// answer must feed the key (PlanRequestKey / PlanRequestSignature).
struct PlanRequest {
  // --- model spec ---
  std::string model_name;
  std::vector<LayerSpec> layers;

  // --- cluster signature ---
  int num_workers = 1;
  int num_servers = 1;
  int batch_per_worker = 32;
  int64_t kv_pair_bytes = 2 * 1024 * 1024;
  /// Per-node NIC bandwidth. 0 = unknown: plan on the byte basis
  /// (minimize payload). > 0: plan on the time basis (wire + latency +
  /// encode CPU), which is what bandwidth-feedback re-planning varies.
  double nic_gbps = 0.0;
  double latency_s = 40e-6;
  /// Fraction of line rate the transport sustains (ClusterSpec mirror).
  double transport_efficiency = 0.6;
  /// CPU rate charged for codec encode/decode passes on the time basis.
  double cpu_flops = 50e9;
  std::string transport = "inproc";

  // --- knob gates ---
  /// > 0: the shard count is pinned (no search); PS rows are costed there.
  int ps_shards_pinned = 0;
  /// Search ceiling for the shard dimension when not pinned.
  int max_shards = 1;
  /// Shard count the paper-mode scheme pass evaluates at when the shard
  /// dimension is being searched (schemes are costed here first, then
  /// re-evaluated at the chosen count).
  int paper_eval_shards = 1;
  /// Baseline staleness (pinned in paper mode and on the byte basis).
  int staleness = 0;
  /// Time-basis ceiling for the staleness dimension (>= staleness).
  int max_staleness = 0;
  /// Inert: the runtime has no egress batcher, so the plan never batches.
  /// These three survive only because the end-to-end benchmark driver
  /// (perfbench/driver.cc) still sets them; they feed neither the search
  /// nor PlanRequestKey / PlanRequestSignature.
  bool batch_egress = false;
  bool allow_batching = false;
  int batch_max_messages = 16;

  // --- policy constraints ---
  PlanPolicy policy = PlanPolicy::kAuto;
  PlanCodecPolicy codec = PlanCodecPolicy::kNone;
  double topk_density = 0.01;
  int64_t compression_min_floats = kCompressionMinFloats;

  // --- search mode ---
  bool joint = false;
};

/// 128-bit request digest: the PlanCache key. Cheap to compute (a few mixes
/// per layer, no string assembly) so a cache hit costs a map lookup, not a
/// re-serialization.
struct PlanKey {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool operator==(const PlanKey& other) const {
    return hi == other.hi && lo == other.lo;
  }
};

struct PlanKeyHash {
  size_t operator()(const PlanKey& key) const {
    return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ULL));
  }
};

PlanKey PlanRequestKey(const PlanRequest& request);

/// Canonical human-readable signature (stored in CommPlan::signature; see
/// docs/PLANNER.md "Cache key derivation" for the format).
std::string PlanRequestSignature(const PlanRequest& request);

/// Cold search: runs the configured mode and returns the finished plan
/// (hash filled in). Deterministic; pure function of the request.
CommPlan PlanComm(const PlanRequest& request);

/// Convenience request builder for benches: full joint search over the given
/// model and symmetric cluster (every node a worker + colocated server).
/// `nic_gbps = 0` plans on the byte basis.
PlanRequest JointAutoRequest(const ModelSpec& model, int num_nodes, double nic_gbps,
                             int max_shards, double topk_density = 0.01,
                             int64_t compression_min_floats = kCompressionMinFloats);

/// Paper mode over a symmetric cluster (every node a worker + colocated
/// server) with `shards` endpoints per server pinned: the decisions `policy`
/// and `codec` make for `model`'s layers at `batch_per_worker`. What the
/// simulator's named systems and the cost-table benches execute.
PlanRequest PaperRequest(const ModelSpec& model, int num_nodes, int batch_per_worker,
                         PlanPolicy policy, PlanCodecPolicy codec = PlanCodecPolicy::kNone,
                         int shards = 1);

/// The pre-planner hand-picked default for the same shape: paper mode,
/// Algorithm-1 hybrid policy, one shard, raw fp32 — the baseline the
/// "planned never costs more predicted bytes" acceptance gate compares
/// against.
PlanRequest PaperDefaultRequest(const ModelSpec& model, int num_nodes,
                                double nic_gbps = 0.0);

}  // namespace poseidon

#endif  // POSEIDON_SRC_PLANNER_COMM_PLANNER_H_
