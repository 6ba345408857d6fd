#include "src/poseidon/kv_store.h"

#include <algorithm>
#include <chrono>

#include "src/common/logging.h"
#include "src/poseidon/flat_params.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

KvShard::KvShard(int server_id, int shard_id, int64_t first_iter,
                 const Coordinator& coordinator, const CommPlan& plan, Network& init_net,
                 MessageBus* bus, const SgdConfig& sgd)
    : server_(server_id),
      shard_(shard_id),
      staleness_(coordinator.cluster().staleness),
      coordinator_(coordinator),
      bus_(bus),
      optimizer_(sgd) {
  CHECK_EQ(plan.layers.size(), static_cast<size_t>(coordinator.num_layers()));
  CHECK_NOTNULL(bus);
  CHECK_LT(shard_id, kMaxShardsPerServer);
  ssp_stall_hist_ = MetricsRegistry::Default().GetHistogram("kv.ssp_stall_ns");
  mailbox_ = bus_->Register(coordinator_.cluster().ShardAddress(server_, shard_));

  for (int l = 0; l < coordinator_.num_layers(); ++l) {
    const PlanLayerChoice& choice = plan.layers[static_cast<size_t>(l)];
    const std::vector<KvPairInfo> owned =
        coordinator_.ServedPairs(l, choice.scheme, server_, shard_);
    if (owned.empty()) {
      continue;
    }
    FlatParamView view(init_net.layer(l).Params());
    LayerState state;
    state.push_codec = PushCodec(choice.scheme, choice.compression);
    state.pairs.reserve(owned.size());
    int64_t total = 0;
    for (const KvPairInfo& info : owned) {
      total += info.length;
    }
    state.params = Payload::Allocate(total);
    const LayerInfo& layer = coordinator_.layer(l);
    int64_t slab_offset = 0;
    for (const KvPairInfo& info : owned) {
      PairState pair;
      pair.info = info;
      pair.slab_offset = slab_offset;
      // A 1-bit frame carries the [fc_m, fc_n] weight and the bias; every
      // other push is the pair's floats, with no trailer.
      pair.frame_shape =
          state.push_codec == WireCodec::kOneBit
              ? Codec::Shape{{layer.fc_m, layer.fc_n}, info.length - layer.fc_m * layer.fc_n}
              : Codec::Shape{{info.length}, 0};
      view.GatherValueSlice(info.offset, state.params.data() + slab_offset, info.length);
      slab_offset += info.length;
      state.pairs.push_back(pair);
    }
    state.applied_clock = first_iter - 1;
    layers_[l] = std::move(state);
  }
}

KvShard::~KvShard() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void KvShard::Start() {
  CHECK(!thread_.joinable());
  thread_ = std::thread([this] { ServiceLoop(); });
}

void KvShard::Join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

void KvShard::ServiceLoop() {
  while (true) {
    std::optional<Message> message = mailbox_->Pop();
    if (!message.has_value() || message->type == MessageType::kShutdown) {
      return;
    }
    CHECK(message->type == MessageType::kGradPush ||
          message->type == MessageType::kOneBitPush)
        << "server " << server_ << " shard " << shard_ << ": unexpected message type";
    HandlePush(*message);
  }
}

bool KvShard::FrameFits(const LayerState& state, const PairState& pair,
                        const WireChunk& chunk) const {
  if (chunk.offset != pair.info.offset) {
    return false;
  }
  const StatusOr<Codec::Shape> shape =
      CodecRegistry::Get(state.push_codec).Inspect(chunk.view);
  return shape.ok() && *shape == pair.frame_shape;
}

void KvShard::HandlePush(const Message& message) {
  ++pushes_processed_;
  auto it = layers_.find(message.layer);
  CHECK(it != layers_.end()) << "server " << server_ << " shard " << shard_
                             << " serves no part of layer " << message.layer;
  LayerState& state = it->second;
  // Every push is sized by its sender, so treat it as wire input: a codec
  // mismatch or a frame that fails validation (or does not fit its pair)
  // drops the push whole — no buffering, no reply — instead of crashing the
  // server or poisoning the clock's aggregate.
  bool well_formed =
      message.codec == state.push_codec && message.chunks.size() == state.pairs.size();
  for (size_t p = 0; well_formed && p < state.pairs.size(); ++p) {
    well_formed = FrameFits(state, state.pairs[p], message.chunks[p]);
  }
  if (!well_formed) {
    ++rejected_pushes_;
    LOG(Warning) << "server " << server_ << " shard " << shard_ << ": dropping malformed "
                 << WireCodecName(message.codec) << " push for layer " << message.layer
                 << " from worker " << message.worker << " (expected "
                 << WireCodecName(state.push_codec) << ")";
    return;
  }
  const int num_workers = coordinator_.cluster().num_workers;
  const int w = message.worker;
  const int64_t clock = message.iter;

  // Reconciliation: a replayed push (recovery, or an at-least-once link)
  // must never contribute to an aggregate twice. A clock at or below the
  // applied cursor buffers nothing; a filled per-worker slot keeps its first
  // contribution. Either way the (worker, clock) read is queued at most once
  // and released under the normal SSP gate, so the restarted worker still
  // gets its parameters.
  bool fresh = clock > state.applied_clock;
  if (fresh) {
    PendingClock& pending = state.pending[clock];
    if (pending.contributions.empty()) {
      pending.contributions.resize(static_cast<size_t>(num_workers));
    }
    std::vector<PayloadView>& slot = pending.contributions[static_cast<size_t>(w)];
    if (!slot.empty()) {
      fresh = false;  // duplicate of a buffered contribution
    } else {
      max_push_lead_ = std::max(max_push_lead_, clock - state.applied_clock);
      // Buffer the sender's views zero-copy until this clock's aggregate is
      // applied; the sender will not overwrite its staging slab while a view
      // is live (see Syncer::MoveOut).
      slot.reserve(message.chunks.size());
      for (const WireChunk& chunk : message.chunks) {
        slot.push_back(chunk.view);
      }
      ++pending.pushes;
    }
  }
  if (!fresh) {
    ++reconciled_pushes_;
  }
  AddWaitingRead(&state.waiting_reads, w, clock);

  // Apply strictly in clock order; a clock is complete once all workers'
  // pushes arrived. (A later clock can be complete early only under s > 0.)
  while (true) {
    auto next = state.pending.find(state.applied_clock + 1);
    if (next == state.pending.end() || next->second.pushes != num_workers) {
      break;
    }
    Apply(message.layer, state, state.applied_clock + 1);
  }
  ReleaseReads(message.layer, state);
}

void KvShard::Apply(int layer, LayerState& state, int64_t clock) {
  TraceSpan apply_span("kv.apply", "server", layer);
  const int num_workers = coordinator_.cluster().num_workers;
  const auto pending = state.pending.find(clock);
  CHECK(pending != state.pending.end());
  const std::vector<std::vector<PayloadView>>& contributions =
      pending->second.contributions;
  const Codec& codec = CodecRegistry::Get(state.push_codec);
  const std::string key = "l" + std::to_string(layer);
  for (size_t p = 0; p < state.pairs.size(); ++p) {
    const PairState& pair = state.pairs[p];
    float* value = state.params.data() + pair.slab_offset;
    // Reduce in worker order for bit-deterministic results. Each
    // contribution (validated on arrival) expands straight into the sum: a
    // raw push as one piece read from the sender's slab, a codec frame one
    // window at a time.
    std::vector<float> grad(static_cast<size_t>(pair.info.length), 0.0f);
    float* sum = grad.data();
    for (int w = 0; w < num_workers; ++w) {
      const Status status = codec.Expand(
          contributions[static_cast<size_t>(w)][p],
          [sum](int64_t offset, const float* data, int64_t len) {
            simd::ReduceAdd(sum + offset, data, len);
          });
      CHECK(status.ok()) << status.ToString();
    }
    simd::Scale(grad.data(), 1.0f / static_cast<float>(num_workers), pair.info.length);
    if (state.push_codec == WireCodec::kOneBit) {
      // A 1-bit layer's one pair is the quantized weight, then the bias.
      const int64_t weight_floats = pair.frame_shape.dense();
      optimizer_.StepSlice(key + ".w", grad.data(), value, weight_floats);
      optimizer_.StepSlice(key + ".b", grad.data() + weight_floats, value + weight_floats,
                           pair.info.length - weight_floats);
    } else {
      optimizer_.StepSlice(key + ".c" + std::to_string(pair.info.chunk), grad.data(),
                           value, pair.info.length);
    }
  }
  state.pending.erase(pending);
  state.applied_clock = clock;
  ++applies_;
}

void KvShard::AddWaitingRead(std::vector<WaitingRead>* reads, int worker, int64_t clock) {
  for (const WaitingRead& read : *reads) {
    if (read.worker == worker && read.clock == clock) {
      return;  // a replayed push keeps the one pending reply it already has
    }
  }
  WaitingRead read;
  read.worker = worker;
  read.clock = clock;
  read.enqueue_ns = SteadyNowNs();
  reads->push_back(read);
}

void KvShard::RecordSspStall(const WaitingRead& read) {
  if (!read.deferred) {
    return;  // answered in the pass that queued it: never gated
  }
  const int64_t stall_ns = std::max<int64_t>(0, SteadyNowNs() - read.enqueue_ns);
  ssp_stall_ns_.fetch_add(stall_ns, std::memory_order_relaxed);
  ssp_stall_hist_->Record(stall_ns);
  if (Tracer::enabled()) {
    // Retroactive complete event: the stall started before this call stack.
    Tracer::Complete("kv.ssp_stall", "server", Tracer::NowNs() - stall_ns, stall_ns,
                     read.worker);
  }
}

void KvShard::SendReply(int layer, int worker, int64_t clock,
                        std::vector<WireChunk> chunks, WireCodec codec) {
  Message reply;
  reply.type = MessageType::kParamReply;
  reply.from = coordinator_.cluster().ShardAddress(server_, shard_);
  reply.to = Address{worker, kSyncerPortBase + layer};
  reply.layer = layer;
  reply.iter = clock;
  reply.codec = codec;
  reply.chunks = std::move(chunks);
  const Status status = bus_->Send(std::move(reply));
  if (status.code() == StatusCode::kNotFound ||
      status.code() == StatusCode::kUnavailable) {
    // The worker's endpoint died between push and release (crash window).
    // Its restarted incarnation will replay the push and earn a fresh reply.
    ++replies_dropped_;
    return;
  }
  CHECK(status.ok()) << status.ToString();
}

void KvShard::ReleaseReads(int layer, LayerState& state) {
  // One shared payload for every read released in this pass: the freshest
  // applied values. Under BSP the reply chunks alias the live parameter
  // slab (no copy): the next apply needs every worker's next push, which
  // happens only after each worker consumed its reply. Under SSP a later
  // clock can be applied while a stale reader is still scattering, so the
  // pass snapshots the slab instead. Compressed PS layers instead encode
  // each pair into a fresh binary16 round-to-nearest frame (stateless, so
  // no residual; the frame is a snapshot either way, hence SSP-safe). 1-bit
  // layers reply raw, like uncompressed PS layers.
  const WireCodec reply_codec = state.push_codec == WireCodec::kRawFloat ||
                                        state.push_codec == WireCodec::kOneBit
                                    ? WireCodec::kRawFloat
                                    : WireCodec::kFp16;
  std::vector<WireChunk> reply_chunks;
  std::vector<WaitingRead> still_waiting;
  for (WaitingRead& read : state.waiting_reads) {
    if (state.applied_clock < read.clock - staleness_) {
      read.deferred = true;
      still_waiting.push_back(read);
      continue;
    }
    if (reply_chunks.empty()) {
      reply_chunks.reserve(state.pairs.size());
      if (reply_codec == WireCodec::kFp16) {
        for (const PairState& pair : state.pairs) {
          Payload frame = Fp16Codec::EncodeRn(state.params.data() + pair.slab_offset,
                                              pair.info.length, nullptr, 0);
          reply_chunks.push_back({pair.info.offset, frame.View()});
        }
      } else {
        Payload source = state.params;
        if (staleness_ > 0) {
          source = Payload::Allocate(state.params.size());
          std::copy(state.params.data(), state.params.data() + state.params.size(),
                    source.data());
          WireCopyStats::Add(state.params.size());
        }
        for (const PairState& pair : state.pairs) {
          reply_chunks.push_back(
              {pair.info.offset, source.View(pair.slab_offset, pair.info.length)});
        }
      }
    }
    max_reply_gap_ = std::max(max_reply_gap_,
                              std::max<int64_t>(0, read.clock - state.applied_clock));
    RecordSspStall(read);
    SendReply(layer, read.worker, read.clock, reply_chunks, reply_codec);
  }
  state.waiting_reads = std::move(still_waiting);
}

KvServer::KvServer(int server_id, int64_t first_iter, const Coordinator& coordinator,
                   const CommPlan& plan, Network& init_net, MessageBus* bus,
                   const SgdConfig& sgd)
    : id_(server_id), coordinator_(coordinator), bus_(bus) {
  const int shards = coordinator.cluster().shards_per_server;
  shards_.reserve(static_cast<size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<KvShard>(server_id, s, first_iter, coordinator,
                                                plan, init_net, bus, sgd));
  }
}

void KvServer::Start() {
  for (auto& shard : shards_) {
    shard->Start();
  }
}

void KvServer::Shutdown() {
  for (auto& shard : shards_) {
    Message shutdown;
    shutdown.type = MessageType::kShutdown;
    shutdown.from = Address{0, kSyncerPortBase};
    shutdown.to = coordinator_.cluster().ShardAddress(id_, shard->shard());
    const Status status = bus_->Send(std::move(shutdown));
    CHECK(status.ok()) << status.ToString();
  }
  for (auto& shard : shards_) {
    shard->Join();
  }
}

}  // namespace poseidon
