/// \file
/// Per-layer syncer (paper §4.1, Table 2): each NN layer maps one-to-one to
/// a syncer that owns its parameter synchronization. The syncer exposes the
/// paper's three APIs:
///   Move    — staging between "GPU" and host memory plus SF/gradient
///             transformations and update application (in-process, the
///             staging is a flatten/scatter pass);
///   Send    — non-blocking push of the layer's updates, using the scheme
///             the coordinator selected;
///   Receive — blocks until fresh parameters (PS) or all peers' sufficient
///             factors (SFB) have arrived, then applies them.
///
/// On the PS path the layer's KV pairs are grouped by destination shard
/// endpoint at construction; Send coalesces each endpoint's pairs into one
/// kGradPush message (request coalescing), so a layer striped over E shard
/// endpoints costs E messages per iteration, not one per pair.
#ifndef POSEIDON_SRC_POSEIDON_SYNCER_H_
#define POSEIDON_SRC_POSEIDON_SYNCER_H_

#include <memory>
#include <vector>

#include "src/models/comm_cost.h"
#include "src/nn/layers.h"
#include "src/nn/sgd.h"
#include "src/poseidon/collective_syncer.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/flat_params.h"
#include "src/tensor/onebit.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {

class Syncer {
 public:
  /// `local_optimizer` applies SFB updates on the worker (shared across this
  /// worker's syncers; may be null for PS-only layers). `scheme` and
  /// `compression` are the layer's CommPlan assignment; non-PS schemes ignore
  /// the codec. `topk_density` sizes the top-k selection per pair.
  Syncer(int worker, int layer_index, PlannedScheme scheme, const Coordinator& coordinator,
         MessageBus* bus, Layer* layer, SgdOptimizer* local_optimizer,
         GradCompression compression = GradCompression::kNone,
         double topk_density = 0.01);

  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  PlannedScheme scheme() const { return scheme_; }
  GradCompression compression() const { return compression_; }

  /// Move(GPU2CPU): stages gradients (or extracts sufficient factors) out of
  /// the layer into send buffers.
  void MoveOut();

  /// Non-blocking send of the staged updates for iteration `iter`.
  void Send(int64_t iter);

  /// Blocks until iteration `iter`'s synchronization completes, then
  /// Move(CPU2GPU): writes fresh parameters back (PS/1-bit) or reconstructs +
  /// applies the aggregate gradient locally (SFB). SF broadcasts from peers
  /// running one iteration ahead are deferred, not lost.
  void Receive(int64_t iter);

 private:
  void SendPs(int64_t iter);
  void SendSfb(int64_t iter);
  void SendOneBit(int64_t iter);
  void ReceivePs();
  void ReceiveSfb(int64_t iter);
  void ReceiveOneBit();

  const int worker_;
  const int layer_index_;
  const PlannedScheme scheme_;
  const GradCompression compression_;
  const double topk_density_;
  const Coordinator& coordinator_;
  MessageBus* bus_;
  Layer* layer_;
  FullyConnectedLayer* fc_;  // non-null for SFB/1-bit layers
  SgdOptimizer* local_optimizer_;

  FlatParamView view_;
  std::shared_ptr<MessageBus::Mailbox> mailbox_;
  /// One coalesced push per destination shard endpoint, fixed at
  /// construction.
  struct ShardDest {
    Address address;
    std::vector<KvPairInfo> pairs;
  };
  std::vector<ShardDest> pairs_by_shard_;
  int total_pairs_ = 0;

  /// PS staging slab: MoveOut gathers the layer's gradient straight into it
  /// and Send ships per-pair views, zero-copy. Reused across iterations
  /// while this syncer is the sole owner; reallocated when a receiver still
  /// holds views (possible under SSP staleness > 0).
  Payload staged_;
  /// Compressed-PS state: the layer-sized error-feedback residual (zeroed at
  /// construction, carried across iterations), the quantizer input scratch
  /// (gradient + residual), and the per-pair encoded frames of the most
  /// recent Send — kept alive here because shards buffer views into them
  /// until the clock's aggregate is applied.
  Payload residual_;
  Payload quant_;
  std::vector<Payload> push_frames_;
  std::unique_ptr<CollectiveSyncer> collective_;  // ring/tree path
  Payload sf_frame_;                              // SFB frame (factors + bias)
  Tensor sf_agg_;                                 // SFB aggregate weight gradient
  Tensor sf_scratch_;                             // one peer's reconstructed gradient
  Payload onebit_frame_;                          // 1-bit frame (signs + levels + bias)
  OneBitQuantizer quantizer_;                     // persistent residual
  std::vector<Message> deferred_;                 // SFs from future iterations
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_SYNCER_H_
