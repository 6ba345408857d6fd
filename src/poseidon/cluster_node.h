/// \file
/// The per-process runtime of a multi-process Poseidon cluster: one
/// ClusterNode hosts this process's slice of the bus node space — any subset
/// of worker replicas and KV servers — over a SocketTransport, and drives the
/// exact worker-loop arithmetic of PoseidonTrainer::RunWorkerLoop.
///
/// Every process constructs the full deterministic workload (dataset +
/// replica factory, src/poseidon/workloads.h) and the full Coordinator from
/// the shared cluster shape, then instantiates only the roles whose bus node
/// it owns. Training math never sees the placement: the trajectory of a
/// spawned N-process cluster is bitwise identical to the in-process trainer
/// (tests/multiprocess_trajectory_test.cc holds this as an oracle).
///
/// Worker results are written to `out_dir`:
///   worker_<w>_losses.txt — one line per iteration, `<iter> <loss> <acc>`
///     with doubles in C hexfloat (%a) so comparisons are bitwise;
///   worker_<w>.ckpt       — final replica parameters (SaveCheckpoint).
#ifndef POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_
#define POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_

#include <memory>
#include <string>

#include "src/common/status.h"
#include "src/poseidon/trainer.h"
#include "src/transport/cluster_launcher.h"
#include "src/transport/socket_transport.h"

namespace poseidon {

/// Everything one process needs to join a cluster. The trainer/workload
/// fields must be identical across all processes (they are derived from the
/// same command line by tools/poseidon_launch); only `process` and
/// `transport.self` differ.
struct ClusterNodeConfig {
  /// Cluster shape, hyperparameters and plan source (RuntimePlan, exactly
  /// as the in-process trainer resolves it). `fault_plan` / `enable_faults`
  /// turn on this process's bus fault fabric, as in the trainer. Crash
  /// plans, failure detection and plan feedback are in-process-trainer
  /// features and must be off; `shards_per_server` must be explicit (>= 1) —
  /// auto-sharding would require every process to agree on the resolved
  /// count.
  TrainerOptions trainer;
  /// Hidden layers of the canonical TinyMlp workload (workloads.h).
  int hidden_layers = 2;
  /// Iterations to train (iter 0 .. iterations-1).
  int iterations = 6;
  /// This process's index (== transport.self).
  int process = 0;
  /// Socket mesh: endpoints for every process and the node -> process map.
  SocketTransportOptions transport;
  /// Directory for worker losses + final checkpoints (must exist). Only
  /// worker-hosting processes write.
  std::string out_dir;
  int rendezvous_timeout_ms = 60000;
  int shutdown_timeout_ms = 300000;
};

/// One cluster member. Construct, then Run() once; Run blocks until the
/// whole cluster shuts down (or a deadline/transport failure aborts it).
class ClusterNode {
 public:
  explicit ClusterNode(ClusterNodeConfig config);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Joins the cluster, trains, writes results, tears down. Non-OK on
  /// rendezvous/shutdown deadline or transport failure — the caller should
  /// exit nonzero so the launcher kills the rest of the cluster.
  Status Run();

  /// Post-Run() snapshot of this process's bus fault counters (all zero
  /// before Run completes): the weather its injector committed on egress
  /// and what its reorder buffer repaired on ingress.
  FaultCountersSnapshot faults() const { return faults_; }

 private:
  Status RunWorker(int w);
  Status WriteWorkerResults(int w);

  const ClusterNodeConfig config_;

  std::unique_ptr<Network> init_net_;
  std::unique_ptr<MessageBus> bus_;
  std::shared_ptr<SocketTransport> transport_;
  std::unique_ptr<ClusterControl> control_;
  std::unique_ptr<Coordinator> coordinator_;
  std::shared_ptr<const CommPlan> plan_;  // RuntimePlan: the trainer's plan

  std::vector<int> local_workers_;               // worker ids hosted here
  std::vector<int> local_servers_;               // server ids hosted here
  std::vector<std::unique_ptr<Network>> worker_nets_;     // by local index
  std::vector<std::unique_ptr<ClientLibrary>> clients_;   // by local index
  std::vector<std::unique_ptr<KvServer>> servers_;        // by local index

  // Per local worker, per iteration.
  std::vector<std::vector<double>> losses_;
  std::vector<std::vector<double>> accuracies_;

  FaultCountersSnapshot faults_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_CLUSTER_NODE_H_
