/// \file
/// The coordinator (paper §4.1): holds the "information book" — cluster
/// configuration, model architecture, and the KV partition plan — and answers
/// Query requests from client libraries and KV stores. Table 2's scheme
/// request is answered by the CommPlanner's paper mode
/// (src/planner/comm_planner.h): the runtime executes the plan built from this
/// information book.
///
/// At construction it inspects the client program's network, flattens each
/// layer's parameters, carves them into fixed-size KV pairs and hashes the
/// pairs round-robin across server shard endpoints, "so as to partition and
/// distribute model parameters to server nodes as equally as possible". With
/// `shards_per_server > 1` every server node hosts that many independent
/// key-range shards (own mailbox, own apply thread); the round-robin cursor
/// runs over the flat `num_servers * shards_per_server` endpoint space, so a
/// large layer stripes across every endpoint in the cluster.
#ifndef POSEIDON_SRC_POSEIDON_COORDINATOR_H_
#define POSEIDON_SRC_POSEIDON_COORDINATOR_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/models/model_spec.h"
#include "src/nn/network.h"
#include "src/transport/message.h"

namespace poseidon {

/// Cluster shape and consistency policy shared by every runtime component.
struct ClusterInfo {
  int num_workers = 1;
  int num_servers = 1;
  /// Independent key-range shards hosted per server node. Each shard owns a
  /// disjoint subset of the KV pairs, listens on its own MessageBus endpoint
  /// and applies updates on its own thread.
  int shards_per_server = 1;
  /// Bounded staleness (SSP, Ho et al. NIPS'13): a worker at clock `c` may
  /// proceed once every update through clock `c - staleness` is applied.
  /// 0 reproduces the paper's BSP bitwise.
  int staleness = 0;
  int batch_per_worker = 32;
  int64_t kv_pair_bytes = 2 * 1024 * 1024;  ///< paper: fixed small pairs (2 MB)
  /// First bus node hosting a server. 0 (the default) colocates server s
  /// with worker s — the single-process trainer's historical layout, where
  /// one machine runs both roles. A multi-process launch sets it past the
  /// worker nodes (typically = num_workers) so every role maps onto its own
  /// OS process. Node ids never enter the arithmetic — shard striping,
  /// worker slots and reply scattering all key on worker/server *ids* — so
  /// the training trajectory is invariant under the placement.
  int server_node_base = 0;

  /// The bus node hosting server `server`.
  int ServerNode(int server) const { return server_node_base + server; }
  /// Bus nodes needed for this cluster shape.
  int NumNodes() const {
    return std::max(num_workers, server_node_base + num_servers);
  }
  /// The mailbox address of shard `shard` on server `server` under this
  /// cluster's placement (see ServerShardAddress for the port layout).
  Address ShardAddress(int server, int shard) const {
    return Address{ServerNode(server), kServerPort + shard};
  }
};

/// One KV pair: a contiguous slice of a layer's flattened parameter vector,
/// owned by exactly one shard endpoint (`server`, `shard`).
struct KvPairInfo {
  int layer = 0;
  int chunk = 0;       ///< index within the layer
  int64_t offset = 0;  ///< float offset into the flattened layer
  int64_t length = 0;  ///< floats
  int server = 0;      ///< owning server node
  int shard = 0;       ///< owning shard within that server
};

/// Architecture facts the coordinator records per layer.
struct LayerInfo {
  std::string name;
  LayerType type = LayerType::kConv;
  int64_t fc_m = 0;
  int64_t fc_n = 0;
  int64_t total_floats = 0;
  std::vector<KvPairInfo> pairs;
};

/// The information book: model + cluster facts and the KV partition plan.
class Coordinator {
 public:
  /// Builds the information book from a live network (the client program's
  /// model, discovered during network assembly).
  Coordinator(Network& net, const ClusterInfo& cluster);

  const ClusterInfo& cluster() const { return cluster_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const LayerInfo& layer(int l) const;

  /// Table 2 "Query": information-book lookups by property name. Supported:
  /// "n_worker", "n_server", "n_shard" (per server), "staleness",
  /// "batchsize", "n_layer", "kv_pair_bytes".
  StatusOr<int64_t> Query(const std::string& property) const;

  /// KV pairs of layer `l` owned by `server` (all of its shards).
  std::vector<KvPairInfo> PairsOnServer(int l, int server) const;

  /// KV pairs of layer `l` owned by endpoint (`server`, `shard`).
  std::vector<KvPairInfo> PairsOnShard(int l, int server, int shard) const;

  /// 1-bit layers move whole (their encoding is not sliceable); layer `l`'s
  /// owning endpoint is fixed by these two functions, which the worker-side
  /// syncer and the serving shard must agree on.
  int OneBitOwnerServer(int l) const;
  int OneBitOwnerShard(int l) const;

  /// Total floats hosted by each server node, for balance checks (the
  /// paper's motivation for fine-grained pairs).
  std::vector<int64_t> ServerLoadFloats() const;

  /// Total floats hosted by each shard endpoint, indexed
  /// `server * shards_per_server + shard`. Striping should keep these as
  /// balanced as the per-server loads.
  std::vector<int64_t> ShardLoadFloats() const;

 private:
  ClusterInfo cluster_;
  std::vector<LayerInfo> layers_;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_COORDINATOR_H_
