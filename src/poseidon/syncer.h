/// \file
/// Per-layer syncer (paper §4.1, Table 2): each NN layer maps one-to-one to
/// a syncer that owns its parameter synchronization. The syncer exposes the
/// paper's three APIs:
///   Move    — staging between "GPU" and host memory plus SF/gradient
///             transformations and update application (in-process, the
///             staging is a flatten/scatter pass);
///   Send    — non-blocking push of the layer's updates, using the scheme
///             the plan selected;
///   Receive — blocks until fresh parameters (PS, 1-bit), all peers'
///             sufficient factors (SFB) or the allreduced gradient (ring,
///             tree) have arrived, then applies them.
///
/// PS and 1-bit layers share one push/reply path. At construction the
/// syncer asks Coordinator::ServedPairs which endpoints serve which of its
/// pairs — a PS layer's pairs striped over the shard endpoints, a 1-bit
/// layer as one whole-layer pair on its owner — and groups them by
/// endpoint; Send coalesces each endpoint's pairs into one push (request
/// coalescing), so a layer striped over E endpoints costs E messages per
/// iteration, not one per pair. Ring and tree layers run their allreduce
/// inline: Send injects this worker's first hop, Receive finishes the
/// remaining hops and applies the average with the replicated local
/// optimizer (collectives sum in a rank-independent order, so replicas stay
/// bitwise identical, as on the SFB path).
#ifndef POSEIDON_SRC_POSEIDON_SYNCER_H_
#define POSEIDON_SRC_POSEIDON_SYNCER_H_

#include <memory>
#include <vector>

#include "src/collective/collective.h"
#include "src/models/comm_cost.h"
#include "src/nn/layers.h"
#include "src/nn/sgd.h"
#include "src/poseidon/coordinator.h"
#include "src/poseidon/flat_params.h"
#include "src/tensor/onebit.h"
#include "src/transport/bus.h"
#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {

class Syncer {
 public:
  /// `local_optimizer` applies SFB and ring/tree updates on the worker
  /// (shared across this worker's syncers; may be null for PS/1-bit layers).
  /// `scheme` and `compression` are the layer's CommPlan assignment; non-PS
  /// schemes ignore the codec. `topk_density` sizes the top-k selection per
  /// pair.
  Syncer(int worker, int layer_index, PlannedScheme scheme, const Coordinator& coordinator,
         MessageBus* bus, Layer* layer, SgdOptimizer* local_optimizer,
         GradCompression compression = GradCompression::kNone,
         double topk_density = 0.01);

  Syncer(const Syncer&) = delete;
  Syncer& operator=(const Syncer&) = delete;

  PlannedScheme scheme() const { return scheme_; }

  /// Move(GPU2CPU): stages gradients (or extracts sufficient factors) out of
  /// the layer into send buffers.
  void MoveOut();

  /// Non-blocking send of the staged updates for iteration `iter`.
  void Send(int64_t iter);

  /// Blocks until iteration `iter`'s synchronization completes, then
  /// Move(CPU2GPU): writes fresh parameters back (PS/1-bit) or applies the
  /// aggregate gradient locally (SFB, ring, tree). SF broadcasts from peers
  /// running one iteration ahead are deferred, not lost.
  void Receive(int64_t iter);

 private:
  /// One push per serving endpoint (PS or 1-bit), after encoding the PS
  /// codec frames when the layer is compressed.
  void SendPush(int64_t iter);
  void SendSfb(int64_t iter);
  /// Waits for every served pair's reply and scatters the values.
  void ReceiveReplies();
  void ReceiveSfb(int64_t iter);
  void ReceiveCollective();

  const int worker_;
  const int layer_index_;
  const PlannedScheme scheme_;
  const GradCompression compression_;
  const WireCodec push_codec_;  // PS and 1-bit layers: PushCodec(scheme, compression)
  const double topk_density_;
  const Coordinator& coordinator_;
  MessageBus* bus_;
  Layer* layer_;
  FullyConnectedLayer* fc_;  // non-null for SFB/1-bit layers
  SgdOptimizer* local_optimizer_;  // non-null for SFB/ring/tree layers

  FlatParamView view_;
  std::shared_ptr<MessageBus::Mailbox> mailbox_;
  /// One coalesced push per serving shard endpoint, fixed at construction.
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
  /// construction, carried across iterations) and the quantizer input
  /// scratch (gradient + residual).
  Payload residual_;
  Payload quant_;
  /// The per-pair encoded frames of the most recent push (compressed PS, or
  /// the one 1-bit frame) — kept alive here because shards buffer views into
  /// them until the clock's aggregate is applied.
  std::vector<Payload> push_frames_;
  OneBitQuantizer quantizer_;  // 1-bit: persistent residual
  /// Ring/tree: this rank's allreduce endpoint and the flat gradient it
  /// reduces in place.
  std::unique_ptr<CollectiveComm> collective_;
  std::vector<float> collective_grads_;
  Payload sf_frame_;               // SFB frame (factors + bias)
  Tensor sf_agg_;                  // SFB aggregate weight gradient
  Tensor sf_scratch_;              // one peer's reconstructed gradient
  std::vector<Message> deferred_;  // SFs from future iterations
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_SYNCER_H_
