// Discrete-event simulation of one distributed training run.
//
// ProtocolSimulation instantiates P symmetric nodes (each a worker plus a
// colocated KV-store server hosting `shards_per_server` key-range shard
// endpoints), a network fabric, and per-node GPU / copy-engine / CPU
// timelines, then executes `warmup + measure` iterations of the chosen
// SystemConfig under its consistency model (BSP, or SSP when
// `staleness > 0`). It reports steady-state iteration time, throughput
// speedup vs the single-node compute-only baseline, the GPU busy/stall
// breakdown (Fig 7) and per-node traffic (Fig 10).
//
// Execution model per node and iteration (paper §3):
//   C_t = [f_1..f_L, b_L..b_1] on the GPU timeline, strictly in order;
//   f_l of iteration t+1 additionally waits for sync_done(l, t - staleness)
//   — BSP's sync_done(l, t) at the default staleness of 0.
// Synchronization pipelines per layer (launched per the overlap mode):
//   PS    d2h -> push shard to every server -> server applies when all P
//         pushes arrived -> broadcast pulls -> h2d -> done
//   SFB   d2h -> broadcast own SFs to P-1 peers; on receiving each peer's
//         SFs h2d it; when all arrived, reconstruct (GPU streams) -> done
//   Adam  d2h SFs -> send to owning server -> server reconstructs when all P
//         arrived -> sends dense matrices to every worker -> h2d -> done
//   1-bit quantize (CPU) -> push compressed -> server dequant/apply/requant
//         -> pull compressed -> dequant -> h2d -> done
#ifndef POSEIDON_SRC_CLUSTER_PROTOCOL_SIM_H_
#define POSEIDON_SRC_CLUSTER_PROTOCOL_SIM_H_

#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster_spec.h"
#include "src/cluster/compute_model.h"
#include "src/cluster/system_config.h"
#include "src/models/comm_cost.h"
#include "src/models/model_spec.h"

namespace poseidon {

struct SimOptions {
  int warmup_iters = 2;
  int measure_iters = 5;
};

struct SimResult {
  std::string system;
  std::string model;
  int num_nodes = 1;
  double nic_gbps = 0.0;

  double iter_time_s = 0.0;        // steady-state, per iteration
  double images_per_sec = 0.0;     // cluster-aggregate throughput
  double single_node_iter_s = 0.0; // compute-only baseline iteration time
  double speedup = 0.0;            // throughput vs 1-node unmodified engine
  double gpu_busy_frac = 0.0;      // averaged over nodes, measured window

  // Per-node traffic during the measured window, gigabits per iteration
  // (framing overhead included, mirroring src/transport/message.h).
  std::vector<double> tx_gbits_per_iter;
  std::vector<double> rx_gbits_per_iter;

  // Per-node wire frames (one per message) per iteration.
  std::vector<double> wire_msgs_per_iter;

  // layer name -> scheme actually used ("PS", "SFB", "SF->PS" for Adam,
  // "1bit").
  std::map<std::string, std::string> layer_schemes;

  // ---- fault model outputs (SystemConfig loss/recovery knobs).
  // Expected wire transmissions per message, 1/(1 - loss_rate).
  double expected_transmissions = 1.0;
  // Cluster-visible stall of one crash-recovery episode: detect + restart +
  // one in-flight-iteration replay, minus what the SSP bound absorbs
  // (survivors run up to `staleness` clocks before blocking on the dead
  // worker). Zero when no failure model is configured.
  double recovery_stall_s = 0.0;
};

// Runs one configuration to completion. Deterministic.
SimResult RunProtocolSimulation(const ModelSpec& model, const SystemConfig& system,
                                const ClusterSpec& cluster, Engine engine, int batch_per_node,
                                const SimOptions& options = SimOptions());

// Convenience: default batch from the model spec.
SimResult RunProtocolSimulation(const ModelSpec& model, const SystemConfig& system,
                                const ClusterSpec& cluster, Engine engine);

}  // namespace poseidon

#endif  // POSEIDON_SRC_CLUSTER_PROTOCOL_SIM_H_
