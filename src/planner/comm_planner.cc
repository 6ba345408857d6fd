#include "src/planner/comm_planner.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/transport/message.h"

namespace poseidon {
namespace {

// ------------------------------------------------------------------ digest --

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t MixString(uint64_t h, const std::string& s) {
  uint64_t f = 1469598103934665603ULL;
  for (char c : s) {
    f ^= static_cast<unsigned char>(c);
    f *= 1099511628211ULL;
  }
  return Mix(Mix(h, f), s.size());
}

// The cache-key digest runs on every PlanCache hit, so it is the whole cost
// of a warm lookup (the planner_cache_speedup series gates it at >= 100x
// under the cold search). A serial mix chain over every field is latency-
// bound (~5 cycles per field back to back), so the request is first
// serialized — plain stores, fully pipelined — into a reused thread-local
// word buffer, then hashed with four independent rotate-multiply lanes whose
// chains overlap; the dependent path shrinks to ~n/4 mixes. The encoding is
// injective (strings are length-prefixed, fields appear in a fixed schema
// order), and SplitMix64 finalizes each lane so low-entropy patterns still
// avalanche across the 128-bit key.
struct KeyWords {
  uint64_t* base;
  uint64_t* p;

  /// `max_words` must bound the number of Put() calls; writes are unchecked
  /// cursor stores so the serialization loop stays branch-free.
  explicit KeyWords(size_t max_words) : base(Buffer(max_words)), p(base) {}

  static uint64_t* Buffer(size_t max_words) {
    static thread_local std::vector<uint64_t> buffer;
    if (buffer.size() < max_words) {
      buffer.resize(max_words);
    }
    return buffer.data();
  }

  void Put(uint64_t v) { *p++ = v; }

  void PutDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Put(bits);
  }

  /// The final 1..8 bytes of a string, folded into one word with fixed-size
  /// (hence inlined) loads — a variable-length memcpy here is an out-of-line
  /// call that dominates the whole digest. The 4..7 case reads two
  /// overlapping 32-bit words; together with the length prefix the encoding
  /// stays injective (the overlap is decodable once the length is known).
  static uint64_t TailWord(const char* p, size_t n) {
    if (n >= 4) {
      uint32_t head = 0;
      uint32_t tail = 0;
      std::memcpy(&head, p, 4);
      std::memcpy(&tail, p + n - 4, 4);
      return static_cast<uint64_t>(head) | (static_cast<uint64_t>(tail) << 32);
    }
    const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
    return static_cast<uint64_t>(u[0]) | (static_cast<uint64_t>(u[n >> 1]) << 8) |
           (static_cast<uint64_t>(u[n - 1]) << 16);
  }

  void PutString(const std::string& s) {
    const size_t n = s.size();
    Put(n);
    if (n == 0) {
      return;
    }
    const char* c = s.data();
    if (n <= 8) {
      Put(TailWord(c, n));
      return;
    }
    size_t i = 0;
    uint64_t w = 0;
    for (; i + 8 <= n; i += 8) {
      std::memcpy(&w, c + i, 8);
      Put(w);
    }
    if (i < n) {
      Put(TailWord(c + i, n - i));
    }
  }

  static uint64_t FastMix(uint64_t h, uint64_t v) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    return (h << 26) | (h >> 38);
  }

  PlanKey Finish(uint64_t seed_a, uint64_t seed_b) const {
    uint64_t h0 = SplitMix64(seed_a);
    uint64_t h1 = SplitMix64(seed_a + 0x632be59bd9b4e019ULL);
    uint64_t h2 = SplitMix64(seed_b);
    uint64_t h3 = SplitMix64(seed_b + 0x632be59bd9b4e019ULL);
    const uint64_t* w = base;
    const size_t n = static_cast<size_t>(p - base);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      h0 = FastMix(h0, w[i]);
      h1 = FastMix(h1, w[i + 1]);
      h2 = FastMix(h2, w[i + 2]);
      h3 = FastMix(h3, w[i + 3]);
    }
    for (; i < n; ++i) {
      h0 = FastMix(h0, w[i]);
    }
    h0 = FastMix(h0, n);
    // Both halves fold in all four lanes, through different paths.
    PlanKey key;
    key.hi = SplitMix64(SplitMix64(SplitMix64(h0 ^ h1) ^ h2) ^ h3);
    key.lo = SplitMix64(SplitMix64(SplitMix64(h3 + h1) ^ h2) + h0);
    return key;
  }
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------- cost kernel --

/// A layer is stateless when it owns no parameters; nothing moves for it
/// (mirrors the coordinator's total_floats == 0 rule).
bool Stateless(const LayerSpec& layer) { return layer.params <= 0; }

CommCostQuery QueryFor(const LayerSpec& layer, const PlanRequest& r, int shards) {
  CommCostQuery q;
  q.m = layer.type == LayerType::kFC ? layer.fc_m : layer.params;
  q.n = layer.type == LayerType::kFC ? layer.fc_n : 1;
  q.batch_k = r.batch_per_worker;
  q.num_workers = r.num_workers;
  q.num_servers = r.num_servers;
  q.num_shards = shards;
  return q;
}

/// Per-worker wire-message count for the framing and latency model (not
/// part of the gated payload series; see docs/PLANNER.md).
double MessagesFor(PlannedScheme scheme, const LayerSpec& layer, const PlanRequest& r,
                   int shards) {
  switch (scheme) {
    case PlannedScheme::kNone:
      return 0.0;
    case PlannedScheme::kPS: {
      const int64_t pairs =
          std::max<int64_t>(1, (layer.params * 4 + r.kv_pair_bytes - 1) / r.kv_pair_bytes);
      const int64_t endpoints = static_cast<int64_t>(r.num_servers) * shards;
      return 2.0 * static_cast<double>(std::min(endpoints, pairs));
    }
    case PlannedScheme::kOneBit:
      return 2.0;  // whole-layer push + pull to/from the owner shard
    case PlannedScheme::kAdamSf:
      return 2.0;  // factors to the owner server + dense matrix back
    case PlannedScheme::kSFB:
      return static_cast<double>(std::max(0, r.num_workers - 1));
    case PlannedScheme::kRing:
      return 2.0 * std::max(0, r.num_workers - 1);
    case PlannedScheme::kTree:
      return 3.0;  // send up + one message per child of an internal node
  }
  return 0.0;
}

struct CandidateCost {
  PlannedScheme scheme = PlannedScheme::kPS;
  GradCompression codec = GradCompression::kNone;
  double payload_bytes = 0.0;
  double msgs = 0.0;
  double encode_floats = 0.0;  // elements run through a codec pass per iter
  double cost = 0.0;           // objective value (bytes or seconds)
};

struct CostBasis {
  bool time = false;
  double wire_bytes_per_s = 0.0;  // nic * transport_efficiency
  double latency_s = 0.0;
  double cpu_flops = 1.0;
};

CostBasis BasisFor(const PlanRequest& r) {
  CostBasis basis;
  basis.time = r.joint && r.nic_gbps > 0.0;
  if (basis.time) {
    basis.wire_bytes_per_s = GbpsToBytesPerSec(r.nic_gbps) * r.transport_efficiency;
    basis.latency_s = r.latency_s;
    basis.cpu_flops = r.cpu_flops;
  }
  return basis;
}

double Objective(const CandidateCost& c, const CostBasis& basis) {
  if (!basis.time) {
    return c.payload_bytes;
  }
  // One encode pass before the push plus the matching decode downstream,
  // charged like the simulator's quant_cpu_s row.
  return c.payload_bytes / basis.wire_bytes_per_s + c.msgs * basis.latency_s +
         2.0 * c.encode_floats / basis.cpu_flops;
}

CandidateCost EvalCandidate(PlannedScheme scheme, GradCompression codec,
                            const LayerSpec& layer, const PlanRequest& r, int shards,
                            const CostBasis& basis) {
  CandidateCost c;
  c.scheme = scheme;
  c.codec = codec;
  c.payload_bytes = SchemeWireBytes(scheme, codec, QueryFor(layer, r, shards), r.topk_density);
  // The 1-bit row and compressed PS pushes run a codec pass over the layer.
  if (scheme == PlannedScheme::kOneBit ||
      (scheme == PlannedScheme::kPS && codec != GradCompression::kNone)) {
    c.encode_floats = static_cast<double>(layer.params);
  }
  c.msgs = MessagesFor(scheme, layer, r, shards);
  c.cost = Objective(c, basis);
  return c;
}

/// Wire codecs the PS candidate may use for `layer`, in canonical menu order
/// (raw first; a fixed-codec policy is a mandate, so it yields the single
/// eligible candidate).
std::vector<GradCompression> PsCodecMenu(const LayerSpec& layer, const PlanRequest& r) {
  const bool eligible = layer.params >= r.compression_min_floats;
  switch (r.codec) {
    case PlanCodecPolicy::kNone:
      return {GradCompression::kNone};
    case PlanCodecPolicy::kFp16:
      return {eligible ? GradCompression::kFp16 : GradCompression::kNone};
    case PlanCodecPolicy::kInt8:
      return {eligible ? GradCompression::kInt8 : GradCompression::kNone};
    case PlanCodecPolicy::kTopK:
      return {eligible ? GradCompression::kTopK : GradCompression::kNone};
    case PlanCodecPolicy::kAuto: {
      std::vector<GradCompression> menu = {GradCompression::kNone};
      if (eligible) {
        menu.push_back(GradCompression::kFp16);
        menu.push_back(GradCompression::kInt8);
        if (r.topk_density > 0.0) {
          menu.push_back(GradCompression::kTopK);
        }
      }
      return menu;
    }
  }
  return {GradCompression::kNone};
}

/// The layer's candidate menu split into the shard-dependent head (the PS
/// family, whose rows vary with the shard count) and the shard-independent
/// tail (SFB and the collectives) — the dominance pruning: the tail is
/// evaluated once per layer and folded into every shard count's argmin.
struct LayerMenu {
  bool stateless = false;
  std::vector<GradCompression> ps_codecs;  // empty: no PS-family candidate
  bool one_bit = false;                    // PS family is the 1-bit row
  std::vector<PlannedScheme> tail;         // canonical order after PS
};

LayerMenu MenuFor(const LayerSpec& layer, const PlanRequest& r) {
  LayerMenu menu;
  if (Stateless(layer)) {
    menu.stateless = true;
    return menu;
  }
  const bool multi = r.num_workers > 1;
  const bool fc = layer.type == LayerType::kFC;
  if (!multi) {
    // No peers: every policy degenerates to the PS (legacy behaviour).
    menu.ps_codecs = PsCodecMenu(layer, r);
    return menu;
  }
  switch (r.policy) {
    case PlanPolicy::kDense:
      menu.ps_codecs = PsCodecMenu(layer, r);
      break;
    case PlanPolicy::kSfb:
      if (fc) {
        menu.tail = {PlannedScheme::kSFB};
      } else {
        menu.ps_codecs = PsCodecMenu(layer, r);
      }
      break;
    case PlanPolicy::kHybrid:
      menu.ps_codecs = PsCodecMenu(layer, r);
      if (fc) {
        menu.tail = {PlannedScheme::kSFB};
      }
      break;
    case PlanPolicy::kOneBit:
      if (fc) {
        menu.one_bit = true;
        menu.ps_codecs = {GradCompression::kNone};
      } else {
        menu.ps_codecs = PsCodecMenu(layer, r);
      }
      break;
    case PlanPolicy::kAdam:
      if (fc) {
        menu.tail = {PlannedScheme::kAdamSf};
      } else {
        menu.ps_codecs = PsCodecMenu(layer, r);
      }
      break;
    case PlanPolicy::kRingAllreduce:
      menu.tail = {PlannedScheme::kRing};
      break;
    case PlanPolicy::kTreeAllreduce:
      menu.tail = {PlannedScheme::kTree};
      break;
    case PlanPolicy::kAuto:
    case PlanPolicy::kHybridCollective:
      menu.ps_codecs = PsCodecMenu(layer, r);
      if (fc) {
        menu.tail = {PlannedScheme::kSFB, PlannedScheme::kRing, PlannedScheme::kTree};
      } else {
        menu.tail = {PlannedScheme::kRing, PlannedScheme::kTree};
      }
      break;
  }
  return menu;
}

/// Folds the layer's full menu at shard count `shards`, replacing only on
/// strict improvement so ties keep the earlier (paper-preferred) candidate.
/// `tail_costs` are the precomputed shard-independent candidates.
CandidateCost BestForLayer(const LayerSpec& layer, const PlanRequest& r,
                           const LayerMenu& menu,
                           const std::vector<CandidateCost>& tail_costs, int shards,
                           const CostBasis& basis) {
  CandidateCost best;
  bool have = false;
  auto fold = [&](const CandidateCost& c) {
    if (!have || c.cost < best.cost) {
      best = c;
      have = true;
    }
  };
  if (menu.one_bit) {
    fold(EvalCandidate(PlannedScheme::kOneBit, GradCompression::kNone, layer, r, shards,
                       basis));
  } else {
    for (GradCompression codec : menu.ps_codecs) {
      fold(EvalCandidate(PlannedScheme::kPS, codec, layer, r, shards, basis));
    }
  }
  for (const CandidateCost& c : tail_costs) {
    fold(c);
  }
  CHECK(have) << "empty candidate menu for layer " << layer.name;
  return best;
}

// ------------------------------------------------------------- paper mode --

/// Algorithm 1 line 7: SFB for an FC layer iff 2K(P1-1)(M+N) <= 2MN(P1+P2-2)/P2,
/// costed at the paper's single-endpoint servers (ties go to SFB).
bool SfbWins(const LayerSpec& layer, const PlanRequest& r) {
  if (r.num_workers <= 1) {
    return false;  // no peers to broadcast to
  }
  const CommCostQuery q = QueryFor(layer, r, /*shards=*/1);
  return SfbWorkerFloats(q) <= PsShardedColocatedFloats(q);
}

/// The three-way HybComm extension (PS vs SFB vs ring/tree) at shard count
/// `shards`: the raw-fp32 argmin of the joint search's per-layer fold. At 4
/// bytes per float the byte rows are the float rows scaled by a power of two,
/// so this orders candidates exactly as the float rows do; ties keep the
/// earlier (paper-preferred) candidate. Note the deliberate basis mismatch:
/// the paper's PS rows count sends plus receives while the collective rows
/// count one direction, which credits collectives with the PS round trip
/// near crossovers; the simulator, which moves actual bytes, is the arbiter
/// where that margin matters.
PlannedScheme ThreeWayScheme(const LayerSpec& layer, const PlanRequest& r, int shards) {
  const CostBasis bytes;
  LayerMenu menu;
  menu.ps_codecs = {GradCompression::kNone};
  if (layer.type == LayerType::kFC) {
    menu.tail.push_back(PlannedScheme::kSFB);
  }
  menu.tail.push_back(PlannedScheme::kRing);
  menu.tail.push_back(PlannedScheme::kTree);
  std::vector<CandidateCost> tail;
  for (PlannedScheme scheme : menu.tail) {
    tail.push_back(EvalCandidate(scheme, GradCompression::kNone, layer, r, shards, bytes));
  }
  return BestForLayer(layer, r, menu, tail, shards, bytes).scheme;
}

/// The smallest shard count in [1, max_shards] minimizing the sharded
/// colocated row for `layer` (the row is monotone non-increasing in S for
/// P1 > 2, so this saturates at max_shards for communication-bound clusters
/// and stays at 1 when sharding cannot help, e.g. P1 <= 2).
int BestPsShardCount(const LayerSpec& layer, const PlanRequest& r, int max_shards) {
  CommCostQuery q = QueryFor(layer, r, /*shards=*/1);
  int best = 1;
  double best_floats = PsShardedColocatedFloats(q);
  for (int s = 2; s <= max_shards; ++s) {
    q.num_shards = s;
    const double floats = PsShardedColocatedFloats(q);
    if (floats < best_floats) {  // strict: ties keep the smaller shard count
      best = s;
      best_floats = floats;
    }
  }
  return best;
}

/// Paper mode's per-layer scheme pass at shard count `shards`: the policy's
/// fixed assignment, Algorithm 1, or the three-way extension. The collective
/// policies apply to every parameter layer and need peers; the FC-only
/// policies leave conv layers on the PS.
std::vector<PlannedScheme> PaperSchemes(const PlanRequest& r, int shards) {
  const bool multi = r.num_workers > 1;
  const PlanPolicy policy =
      r.policy == PlanPolicy::kAuto ? PlanPolicy::kHybridCollective : r.policy;
  std::vector<PlannedScheme> schemes;
  schemes.reserve(r.layers.size());
  for (const LayerSpec& layer : r.layers) {
    PlannedScheme scheme = PlannedScheme::kPS;
    if (Stateless(layer)) {
      scheme = PlannedScheme::kNone;
    } else if (policy == PlanPolicy::kRingAllreduce) {
      scheme = multi ? PlannedScheme::kRing : PlannedScheme::kPS;
    } else if (policy == PlanPolicy::kTreeAllreduce) {
      scheme = multi ? PlannedScheme::kTree : PlannedScheme::kPS;
    } else if (policy == PlanPolicy::kHybridCollective) {
      scheme = multi ? ThreeWayScheme(layer, r, shards) : PlannedScheme::kPS;
    } else if (layer.type == LayerType::kFC) {
      switch (policy) {
        case PlanPolicy::kSfb:
          scheme = PlannedScheme::kSFB;
          break;
        case PlanPolicy::kHybrid:
          scheme = SfbWins(layer, r) ? PlannedScheme::kSFB : PlannedScheme::kPS;
          break;
        case PlanPolicy::kOneBit:
          scheme = PlannedScheme::kOneBit;
          break;
        case PlanPolicy::kAdam:
          scheme = PlannedScheme::kAdamSf;
          break;
        default:
          break;
      }
    }
    schemes.push_back(scheme);
  }
  return schemes;
}

/// The cheapest PS codec for a layer of `layer_floats` elements by the
/// per-float byte rows: raw below `min_floats`, otherwise the first of fp16,
/// int8, top-k (at positive density) that strictly beats the best so far.
GradCompression BestCompression(int64_t layer_floats, double topk_density,
                                int64_t min_floats) {
  if (layer_floats < min_floats) {
    return GradCompression::kNone;
  }
  GradCompression best = GradCompression::kNone;
  double best_bytes = PushBytesPerFloat(best, topk_density) + PullBytesPerFloat(best);
  for (GradCompression candidate :
       {GradCompression::kFp16, GradCompression::kInt8, GradCompression::kTopK}) {
    if (candidate == GradCompression::kTopK && topk_density <= 0.0) {
      continue;
    }
    const double bytes =
        PushBytesPerFloat(candidate, topk_density) + PullBytesPerFloat(candidate);
    if (bytes < best_bytes) {
      best = candidate;
      best_bytes = bytes;
    }
  }
  return best;
}

GradCompression PaperCodec(const LayerSpec& layer, const PlanRequest& r) {
  if (layer.params < r.compression_min_floats) {
    return GradCompression::kNone;
  }
  switch (r.codec) {
    case PlanCodecPolicy::kNone:
      return GradCompression::kNone;
    case PlanCodecPolicy::kFp16:
      return GradCompression::kFp16;
    case PlanCodecPolicy::kInt8:
      return GradCompression::kInt8;
    case PlanCodecPolicy::kTopK:
      return GradCompression::kTopK;
    case PlanCodecPolicy::kAuto:
      return BestCompression(layer.params, r.topk_density, r.compression_min_floats);
  }
  return GradCompression::kNone;
}

// -------------------------------------------------------------- assembly --

/// Fills the plan's framing model and (time basis) the staleness choice +
/// predicted time from the finished per-layer assignments.
void FinishPlan(const PlanRequest& r, const CostBasis& basis, CommPlan* plan) {
  double payload = 0.0;
  double msgs = 0.0;
  double encode_floats = 0.0;
  for (size_t l = 0; l < plan->layers.size(); ++l) {
    const PlanLayerChoice& choice = plan->layers[l];
    payload += choice.predicted_bytes;
    msgs += MessagesFor(choice.scheme, r.layers[l], r, plan->ps_shards);
    if (choice.scheme == PlannedScheme::kOneBit ||
        (choice.scheme == PlannedScheme::kPS &&
         choice.compression != GradCompression::kNone)) {
      encode_floats += static_cast<double>(r.layers[l].params);
    }
  }
  plan->predicted_wire_bytes = payload;
  // Every message is its own wire frame and pays kWireFrameBytes.
  plan->predicted_msgs = msgs;
  plan->predicted_framing_bytes = msgs * kWireFrameBytes;

  plan->staleness = r.staleness;
  plan->planned_gbps = r.nic_gbps;
  if (basis.time) {
    const double comm_s = payload / basis.wire_bytes_per_s +
                          plan->predicted_msgs * basis.latency_s +
                          2.0 * encode_floats / basis.cpu_flops;
    // An SSP bound of s lets communication overlap the next s iterations, so
    // the steady-state visible tail divides by s + 1 (docs/PLANNER.md); the
    // ceiling is opt-in via max_staleness, and s = 0 keeps BSP.
    if (r.joint && r.max_staleness > r.staleness && comm_s > 0.0) {
      plan->staleness = r.max_staleness;
    }
    plan->predicted_time_s = comm_s / (1.0 + plan->staleness);
  }
}

}  // namespace

const char* PlanPolicyName(PlanPolicy policy) {
  switch (policy) {
    case PlanPolicy::kAuto:
      return "auto";
    case PlanPolicy::kDense:
      return "dense";
    case PlanPolicy::kSfb:
      return "sfb";
    case PlanPolicy::kHybrid:
      return "hybrid";
    case PlanPolicy::kOneBit:
      return "1bit";
    case PlanPolicy::kRingAllreduce:
      return "ring";
    case PlanPolicy::kTreeAllreduce:
      return "tree";
    case PlanPolicy::kHybridCollective:
      return "hybrid-collective";
    case PlanPolicy::kAdam:
      return "adam";
  }
  return "?";
}

const char* PlanCodecPolicyName(PlanCodecPolicy policy) {
  switch (policy) {
    case PlanCodecPolicy::kNone:
      return "none";
    case PlanCodecPolicy::kFp16:
      return "fp16";
    case PlanCodecPolicy::kInt8:
      return "int8";
    case PlanCodecPolicy::kTopK:
      return "topk";
    case PlanCodecPolicy::kAuto:
      return "auto";
  }
  return "?";
}

PlanKey PlanRequestKey(const PlanRequest& r) {
  // Word-count bound for the unchecked serializer: every string costs
  // 1 length word + ceil(size/8) payload words.
  size_t bound = 32;
  bound += 2 + r.model_name.size() / 8 + r.transport.size() / 8;
  for (const LayerSpec& layer : r.layers) {
    bound += 6 + layer.name.size() / 8;
  }
  KeyWords d(bound);
  d.PutString(r.model_name);
  d.Put(r.layers.size());
  for (const LayerSpec& layer : r.layers) {
    d.PutString(layer.name);
    d.Put(static_cast<uint64_t>(layer.type));
    d.Put(static_cast<uint64_t>(layer.params));
    d.Put(static_cast<uint64_t>(layer.fc_m));
    d.Put(static_cast<uint64_t>(layer.fc_n));
  }
  d.Put(static_cast<uint64_t>(r.num_workers));
  d.Put(static_cast<uint64_t>(r.num_servers));
  d.Put(static_cast<uint64_t>(r.batch_per_worker));
  d.Put(static_cast<uint64_t>(r.kv_pair_bytes));
  d.PutDouble(r.nic_gbps);
  d.PutDouble(r.latency_s);
  d.PutDouble(r.transport_efficiency);
  d.PutDouble(r.cpu_flops);
  d.PutString(r.transport);
  d.Put(static_cast<uint64_t>(r.ps_shards_pinned));
  d.Put(static_cast<uint64_t>(r.max_shards));
  d.Put(static_cast<uint64_t>(r.paper_eval_shards));
  d.Put(static_cast<uint64_t>(r.staleness));
  d.Put(static_cast<uint64_t>(r.max_staleness));
  d.Put(static_cast<uint64_t>(r.policy));
  d.Put(static_cast<uint64_t>(r.codec));
  d.PutDouble(r.topk_density);
  d.Put(static_cast<uint64_t>(r.compression_min_floats));
  d.Put(r.joint ? 1 : 0);
  return d.Finish(0x706f736569646f6eULL, 0x636f6d6d706c616eULL);  // "poseidon commplan"
}

std::string PlanRequestSignature(const PlanRequest& r) {
  uint64_t layer_digest = 1469598103934665603ULL;
  for (const LayerSpec& layer : r.layers) {
    uint64_t h = 0;
    h = MixString(h, layer.name);
    h = Mix(h, static_cast<uint64_t>(layer.type));
    h = Mix(h, static_cast<uint64_t>(layer.params));
    h = Mix(h, static_cast<uint64_t>(layer.fc_m));
    h = Mix(h, static_cast<uint64_t>(layer.fc_n));
    layer_digest = Mix(layer_digest, h);
  }
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(layer_digest));
  std::string s;
  s += "model=" + r.model_name;
  s += "|layers=" + std::to_string(r.layers.size()) + ":" + digest_hex;
  s += "|w=" + std::to_string(r.num_workers);
  s += "|srv=" + std::to_string(r.num_servers);
  s += "|b=" + std::to_string(r.batch_per_worker);
  s += "|kv=" + std::to_string(r.kv_pair_bytes);
  s += "|bw=" + Fmt(r.nic_gbps);
  s += "|lat=" + Fmt(r.latency_s);
  s += "|eff=" + Fmt(r.transport_efficiency);
  s += "|cpu=" + Fmt(r.cpu_flops);
  s += "|tr=" + r.transport;
  s += "|pin=" + std::to_string(r.ps_shards_pinned);
  s += "|maxsh=" + std::to_string(r.max_shards);
  s += "|evalsh=" + std::to_string(r.paper_eval_shards);
  s += "|stale=" + std::to_string(r.staleness);
  s += "|maxstale=" + std::to_string(r.max_staleness);
  s += std::string("|pol=") + PlanPolicyName(r.policy);
  s += std::string("|codec=") + PlanCodecPolicyName(r.codec);
  s += "|dens=" + Fmt(r.topk_density);
  s += "|minfl=" + std::to_string(r.compression_min_floats);
  s += std::string("|joint=") + (r.joint ? "1" : "0");
  return s;
}

CommPlan PlanComm(const PlanRequest& r) {
  CHECK_GT(r.num_workers, 0);
  CHECK_GT(r.num_servers, 0);
  CHECK_GT(r.batch_per_worker, 0);
  CHECK_GE(r.ps_shards_pinned, 0);
  CHECK_GT(r.max_shards, 0);
  CHECK_GE(r.staleness, 0);
  CHECK_GE(r.max_staleness, 0);
  if (r.codec == PlanCodecPolicy::kTopK || r.codec == PlanCodecPolicy::kAuto) {
    CHECK_GT(r.topk_density, 0.0);
    CHECK_LE(r.topk_density, 1.0);
  }
  const CostBasis basis = BasisFor(r);
  CommPlan plan;
  plan.model = r.model_name;
  plan.signature = PlanRequestSignature(r);
  plan.topk_density = r.topk_density;

  const size_t num_layers = r.layers.size();
  if (!r.joint) {
    // Paper mode: the sequential decisions — schemes at the evaluation shard
    // count, then the shard count (the busiest PS layer sets it), then the
    // schemes again at the chosen count, then each PS layer's codec.
    const int s0 = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : r.paper_eval_shards;
    const std::vector<PlannedScheme> schemes0 = PaperSchemes(r, s0);
    int best_s = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : 1;
    if (r.ps_shards_pinned == 0) {
      for (size_t l = 0; l < num_layers; ++l) {
        if (schemes0[l] == PlannedScheme::kPS) {
          best_s = std::max(best_s, BestPsShardCount(r.layers[l], r, r.max_shards));
        }
      }
    }
    const std::vector<PlannedScheme> schemes =
        best_s == s0 ? schemes0 : PaperSchemes(r, best_s);
    plan.ps_shards = best_s;
    for (size_t l = 0; l < num_layers; ++l) {
      const LayerSpec& layer = r.layers[l];
      PlanLayerChoice choice;
      choice.layer = layer.name;
      choice.scheme = schemes[l];
      if (choice.scheme == PlannedScheme::kPS) {
        choice.compression = PaperCodec(layer, r);
      }
      if (choice.scheme != PlannedScheme::kNone) {
        choice.predicted_bytes =
            EvalCandidate(choice.scheme, choice.compression, layer, r, best_s, basis)
                .payload_bytes;
      }
      plan.layers.push_back(std::move(choice));
    }
  } else {
    // Joint mode: per-layer argmin over the full menu at every candidate
    // shard count. Tail candidates (SFB / collectives) are shard-independent
    // and evaluated once per layer (dominance pruning).
    std::vector<LayerMenu> menus;
    std::vector<std::vector<CandidateCost>> tails(num_layers);
    menus.reserve(num_layers);
    for (size_t l = 0; l < num_layers; ++l) {
      menus.push_back(MenuFor(r.layers[l], r));
      for (PlannedScheme scheme : menus[l].tail) {
        tails[l].push_back(EvalCandidate(scheme, GradCompression::kNone, r.layers[l], r,
                                         /*shards=*/1, basis));
      }
    }
    const int s_lo = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : 1;
    const int s_hi = r.ps_shards_pinned > 0 ? r.ps_shards_pinned : r.max_shards;
    int best_s = s_lo;
    double best_total = 0.0;
    bool have_total = false;
    for (int s = s_lo; s <= s_hi; ++s) {
      double total = 0.0;
      for (size_t l = 0; l < num_layers; ++l) {
        if (menus[l].stateless) {
          continue;
        }
        total += BestForLayer(r.layers[l], r, menus[l], tails[l], s, basis).cost;
      }
      if (!have_total || total < best_total) {  // strict: ties keep fewer shards
        best_total = total;
        best_s = s;
        have_total = true;
      }
    }
    plan.ps_shards = best_s;
    for (size_t l = 0; l < num_layers; ++l) {
      const LayerSpec& layer = r.layers[l];
      PlanLayerChoice choice;
      choice.layer = layer.name;
      if (!menus[l].stateless) {
        const CandidateCost best =
            BestForLayer(layer, r, menus[l], tails[l], best_s, basis);
        choice.scheme = best.scheme;
        choice.compression = best.codec;
        choice.predicted_bytes = best.payload_bytes;
      }
      plan.layers.push_back(std::move(choice));
    }
  }

  FinishPlan(r, basis, &plan);
  plan.hash = plan.ComputeHash();
  return plan;
}

PlanRequest JointAutoRequest(const ModelSpec& model, int num_nodes, double nic_gbps,
                             int max_shards, double topk_density,
                             int64_t compression_min_floats) {
  PlanRequest req;
  req.model_name = model.name;
  req.layers = model.layers;
  req.num_workers = num_nodes;
  req.num_servers = num_nodes;
  req.batch_per_worker = model.default_batch;
  req.nic_gbps = nic_gbps;
  req.max_shards = max_shards;
  req.policy = PlanPolicy::kAuto;
  req.codec = PlanCodecPolicy::kAuto;
  req.topk_density = topk_density;
  req.compression_min_floats = compression_min_floats;
  req.joint = true;
  return req;
}

PlanRequest PaperRequest(const ModelSpec& model, int num_nodes, int batch_per_worker,
                         PlanPolicy policy, PlanCodecPolicy codec, int shards) {
  PlanRequest req;
  req.model_name = model.name;
  req.layers = model.layers;
  req.num_workers = num_nodes;
  req.num_servers = num_nodes;
  req.batch_per_worker = batch_per_worker;
  req.ps_shards_pinned = shards;
  req.policy = policy;
  req.codec = codec;
  req.joint = false;
  return req;
}

PlanRequest PaperDefaultRequest(const ModelSpec& model, int num_nodes, double nic_gbps) {
  PlanRequest req = PaperRequest(model, num_nodes, model.default_batch, PlanPolicy::kHybrid);
  req.nic_gbps = nic_gbps;
  return req;
}

}  // namespace poseidon
