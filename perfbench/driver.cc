// perfbench driver: runs one benchmark workload for a wall-clock budget and
// prints its raw measurements as one JSON line on stdout. run.py builds this
// binary, runs it and formats the benchmark's result; README.md describes
// every workload and metric.
//
//   perfbench_driver --workload ps-deep --seed 1 --seconds 25 --trace 0
//
// The driver reaches the system only through its public API: the threaded
// runtime (PoseidonTrainer), the planner, the codec registry and the
// protocol simulator. Untraced runs (--trace 0) measure the end-to-end
// metrics; traced runs (--trace 1) measure an untraced window, then a traced
// window with the span tracer and bus link stats on, and reduce the spans
// into per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/protocol_sim.h"
#include "src/cluster/system_config.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/models/zoo.h"
#include "src/nn/builders.h"
#include "src/nn/dataset.h"
#include "src/nn/single_trainer.h"
#include "src/planner/comm_planner.h"
#include "src/planner/plan_cache.h"
#include "src/poseidon/trainer.h"
#include "src/stats/metrics.h"
#include "src/stats/stopwatch.h"
#include "src/stats/trace.h"
#include "src/transport/codec.h"
#include "src/transport/payload.h"

namespace poseidon {
namespace {

// ------------------------------------------------------------ helpers ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Everything one run reports; serialized as the driver's last stdout line.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> metrics;

  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void Set(const std::string& name, double value) { metrics.emplace_back(name, value); }
  bool AllChecksPass() const {
    return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
  }

  void Print() const {
    std::printf("{\"attempted\": %lld, \"failed\": %lld, \"checks\": {",
                static_cast<long long>(attempted), static_cast<long long>(failed));
    for (size_t i = 0; i < checks.size(); ++i) {
      std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", checks[i].first.c_str(),
                  checks[i].second ? "true" : "false");
    }
    std::printf("}, \"metrics\": {");
    for (size_t i = 0; i < metrics.size(); ++i) {
      // Non-finite values are not JSON numbers; run.py treats null as a
      // failed measurement.
      const double v = metrics[i].second;
      if (std::isfinite(v)) {
        std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ", metrics[i].first.c_str(), v);
      } else {
        std::printf("%s\"%s\": null", i == 0 ? "" : ", ", metrics[i].first.c_str());
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) {
    total += x;
  }
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Independent sub-seeds (dataset, weights, sweep order) from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) { return Rng(seed).Split(salt).Next(); }

// Median ns per call of `fn` over `reps` timed batches of ~`batch_ms` each,
// after one untimed batch (page faults, cold caches).
template <typename Fn>
double MedianNsPerCall(Fn&& fn, int reps, double batch_ms) {
  std::vector<double> per_call;
  for (int rep = -1; rep < reps; ++rep) {
    Stopwatch watch;
    int64_t calls = 0;
    do {
      fn();
      ++calls;
    } while (watch.ElapsedMillis() < batch_ms);
    if (rep >= 0) {
      per_call.push_back(static_cast<double>(watch.ElapsedNs()) / static_cast<double>(calls));
    }
  }
  return Quantile(per_call, 0.5);
}

// ------------------------------------------------------ span reduction ----

// Per-name totals of the spans recorded while the tracer was on.
struct SpanStat {
  int64_t count = 0;
  double total_us = 0.0;
  std::vector<double> durations_us;
};

// Pulls the string value of `"key": "..."` out of one exported event line.
std::string StringField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) {
    return std::string();
  }
  const size_t begin = at + needle.size();
  return line.substr(begin, line.find('"', begin) - begin);
}

double NumberField(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t at = line.find(needle);
  return at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at + needle.size(), nullptr);
}

// Reduces the tracer's Chrome-JSON export (one event per line) to per-name
// span statistics: B/E pairs matched per thread, X events by their duration.
std::map<std::string, SpanStat> ReduceSpans(const std::string& chrome_json) {
  std::map<std::string, SpanStat> spans;
  std::map<int64_t, std::vector<std::pair<std::string, double>>> open;  // tid -> stack
  size_t pos = 0;
  while (pos < chrome_json.size()) {
    size_t end = chrome_json.find('\n', pos);
    if (end == std::string::npos) {
      end = chrome_json.size();
    }
    const std::string line = chrome_json.substr(pos, end - pos);
    pos = end + 1;
    const std::string phase = StringField(line, "ph");
    if (phase.empty()) {
      continue;
    }
    const std::string name = StringField(line, "name");
    const int64_t tid = static_cast<int64_t>(NumberField(line, "tid"));
    const double ts = NumberField(line, "ts");
    double dur = -1.0;
    if (phase == "B") {
      open[tid].emplace_back(name, ts);
    } else if (phase == "E") {
      auto& stack = open[tid];
      if (!stack.empty() && stack.back().first == name) {
        dur = ts - stack.back().second;
        stack.pop_back();
      }
    } else if (phase == "X") {
      dur = NumberField(line, "dur");
    }
    if (dur >= 0.0) {
      SpanStat& stat = spans[name];
      ++stat.count;
      stat.total_us += dur;
      stat.durations_us.push_back(dur);
    }
  }
  return spans;
}

// Total time of every span whose name starts with `prefix`.
double TotalUsWithPrefix(const std::map<std::string, SpanStat>& spans, const std::string& prefix) {
  double total = 0.0;
  for (const auto& [name, stat] : spans) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      total += stat.total_us;
    }
  }
  return total;
}

// Quantile of a latency histogram, interpolated linearly inside its bucket.
double HistogramQuantile(const Histogram::Snapshot& h, double q) {
  if (h.total_count == 0) {
    return 0.0;
  }
  const double target = q * static_cast<double>(h.total_count);
  double seen = 0.0;
  for (size_t b = 0; b < h.counts.size(); ++b) {
    const double count = static_cast<double>(h.counts[b]);
    if (count > 0.0 && seen + count >= target) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(h.edges[b - 1]);
      const double hi =
          b < h.edges.size() ? static_cast<double>(h.edges[b]) : static_cast<double>(h.max);
      return lo + (hi - lo) * (target - seen) / count;
    }
    seen += count;
  }
  return static_cast<double>(h.max);
}

// -------------------------------------------------- training workloads ----

constexpr int kWorkers = 2;
constexpr int kServers = 2;
constexpr int kClasses = 10;
// final_loss averages the training loss over this many iterations.
constexpr int kLossSpan = 32;

struct TrainWorkload {
  const char* name;
  int image_hw;  // 1-channel image_hw x image_hw inputs
  int hidden_dim;
  int hidden_layers;
  int batch_per_worker;
  // Input noise relative to the unit-RMS class prototypes: high enough that
  // the loss is still falling slowly at loss_iter, where its spread across
  // seeds is small.
  float noise_stddev;
  TrainerPlanMode plan_mode;
  PsCompressionPolicy compression;
  int warmup_iters;
  int chunk_iters;  // iterations per Train() call in the timed window
  // final_loss is the mean loss of the kLossSpan iterations before this
  // window iteration, a fixed point so the value is exact for a seed; the
  // window always runs at least this long.
  int loss_iter;
};

// Names, shapes and reasons are documented in README.md.
const TrainWorkload kTrainWorkloads[] = {
    {"ps-deep", 8, 64, 20, 16, 4.0f, TrainerPlanMode::kPaper, PsCompressionPolicy::kNone, 60,
     100, 800},
    {"auto-deep", 8, 64, 20, 16, 4.0f, TrainerPlanMode::kAuto, PsCompressionPolicy::kNone, 60,
     100, 800},
    {"wide-int8", 16, 1024, 2, 8, 8.0f, TrainerPlanMode::kPaper, PsCompressionPolicy::kInt8, 15,
     20, 120},
};

DatasetConfig MakeDatasetConfig(const TrainWorkload& w, uint64_t seed) {
  DatasetConfig data;
  data.num_classes = kClasses;
  data.channels = 1;
  data.height = w.image_hw;
  data.width = w.image_hw;
  // Samples are generated on the fly, so a large index space costs nothing
  // and keeps the model from memorizing its way to a zero loss.
  data.train_size = 1 << 20;
  data.test_size = 16;
  data.noise_stddev = w.noise_stddev;
  data.seed = SubSeed(seed, 1);
  return data;
}

NetworkFactory MakeFactory(const TrainWorkload& w, uint64_t seed) {
  const uint64_t init_seed = SubSeed(seed, 2);
  const int input = w.image_hw * w.image_hw;
  const int hidden = w.hidden_dim;
  const int layers = w.hidden_layers;
  return [=] {
    Rng rng(init_seed);
    return BuildMlp(input, hidden, layers, kClasses, rng);
  };
}

TrainerOptions MakeOptions(const TrainWorkload& w) {
  TrainerOptions options;
  options.num_workers = kWorkers;
  options.num_servers = kServers;
  options.shards_per_server = 1;
  options.batch_per_worker = w.batch_per_worker;
  // Small enough that the loss stays finite for thousands of iterations on
  // every seed (a diverged run would time NaN arithmetic).
  options.sgd = {.learning_rate = 0.01f, .momentum = 0.5f};
  options.fc_policy = FcSyncPolicy::kDense;
  options.ps_compression = w.compression;
  options.plan_mode = w.plan_mode;
  options.model_name = w.name;
  return options;
}

// A trainer after set-up: dataset made, replicas and shards built, plan
// chosen, warm-up iterations done.
struct Session {
  std::unique_ptr<SyntheticDataset> dataset;
  std::unique_ptr<PoseidonTrainer> trainer;
  std::vector<IterationStats> warmup;
};

Session SetUp(const TrainWorkload& w, uint64_t seed) {
  // Every set-up plans cold, as a fresh process would.
  PlanCache::Global().Clear();
  Session session;
  session.dataset = std::make_unique<SyntheticDataset>(MakeDatasetConfig(w, seed));
  session.trainer = std::make_unique<PoseidonTrainer>(MakeFactory(w, seed), MakeOptions(w));
  session.warmup = session.trainer->Train(*session.dataset, w.warmup_iters);
  return session;
}

struct Window {
  std::vector<IterationStats> stats;
  double seconds = 0.0;
  std::vector<double> chunk_seconds;  // one per Train() call, equal sizes

  double SamplesPerSec(int batch_per_worker) const {
    return static_cast<double>(stats.size()) * kWorkers * batch_per_worker / seconds;
  }

  // Upper quartile over Train() calls of their samples per second. Load
  // from outside the benchmark (other tenants of a shared host) only ever
  // slows a call down, so the fast quartile tracks the system's own speed.
  double FastQuartileSamplesPerSec(int batch_per_worker) const {
    const double chunk_samples = static_cast<double>(stats.size()) * kWorkers *
                                 batch_per_worker / static_cast<double>(chunk_seconds.size());
    std::vector<double> rates;
    for (double s : chunk_seconds) {
      rates.push_back(chunk_samples / s);
    }
    return Quantile(rates, 0.75);
  }
};

// Closed-loop timed window: Train() calls of `chunk` iterations until both
// `min_seconds` and `min_iters` are reached.
Window RunWindow(Session& session, int chunk, double min_seconds, int min_iters) {
  TraceSpan span("bench.train_window", "bench");
  Window window;
  Stopwatch watch;
  do {
    Stopwatch chunk_watch;
    const std::vector<IterationStats> stats = session.trainer->Train(*session.dataset, chunk);
    window.chunk_seconds.push_back(chunk_watch.ElapsedSeconds());
    window.stats.insert(window.stats.end(), stats.begin(), stats.end());
  } while (watch.ElapsedSeconds() < min_seconds ||
           static_cast<int>(window.stats.size()) < min_iters);
  window.seconds = watch.ElapsedSeconds();
  return window;
}

std::vector<float> AllParams(Network& net) {
  std::vector<float> out;
  for (auto& layer_params : net.LayerParams()) {
    for (ParamBlock& p : layer_params) {
      out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
    }
  }
  return out;
}

double LossAt(const std::vector<IterationStats>& stats, int end) {
  double total = 0.0;
  for (int i = end - kLossSpan; i < end; ++i) {
    total += stats[static_cast<size_t>(i)].mean_loss;
  }
  return total / kLossSpan;
}

// Correctness checks shared by both run modes; a failed whole-run check
// marks every iteration failed, since none of the run's outputs can be
// trusted.
void CheckTraining(Session& session, const std::vector<IterationStats>& window,
                   double final_loss, Report* report) {
  auto count_non_finite = [](const std::vector<IterationStats>& stats) {
    return std::count_if(stats.begin(), stats.end(),
                         [](const IterationStats& it) { return !std::isfinite(it.mean_loss); });
  };
  const int64_t non_finite = count_non_finite(session.warmup) + count_non_finite(window);
  report->attempted += static_cast<int64_t>(session.warmup.size() + window.size());
  report->Check("loss_finite", non_finite == 0);
  report->Check("loss_decreased", final_loss < session.warmup.front().mean_loss);

  const std::vector<float> reference = AllParams(session.trainer->worker_net(0));
  bool identical = true;
  for (int w = 1; w < kWorkers; ++w) {
    const std::vector<float> params = AllParams(session.trainer->worker_net(w));
    identical = identical && params.size() == reference.size() &&
                std::memcmp(params.data(), reference.data(),
                            reference.size() * sizeof(float)) == 0;
  }
  report->Check("replicas_bitwise_identical", identical);

  int64_t bytes = 0;
  for (int64_t b : session.trainer->bus().TxBytes()) {
    bytes += b;
  }
  report->Check("bus_bytes_nonzero", bytes > 0);
  report->failed += report->AllChecksPass() ? non_finite : report->attempted;
}

// The p90 of each block of kP90Block consecutive iterations (10 samples
// beyond it), then the lower quartile over blocks: as for throughput, the
// quiet quartile tracks the system rather than the host's other load.
constexpr size_t kP90Block = 100;

double BlockP90(const std::vector<double>& iter_ms) {
  std::vector<double> block_p90;
  for (size_t begin = 0; begin + kP90Block <= iter_ms.size(); begin += kP90Block) {
    block_p90.push_back(Quantile(
        std::vector<double>(iter_ms.begin() + begin, iter_ms.begin() + begin + kP90Block), 0.9));
  }
  return Quantile(block_p90, 0.25);
}

void RunTrainingUntraced(const TrainWorkload& w, const Args& args, Report* report) {
  // Set-up is repeated and its median reported; the last session is timed.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  Session session;
  for (int i = 0; i < kSetups; ++i) {
    session = Session();  // tear the previous one down outside the timer
    Stopwatch watch;
    session = SetUp(w, args.seed);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  const Window window = RunWindow(session, w.chunk_iters, args.seconds, w.loss_iter);

  std::vector<double> iter_ms;
  for (const IterationStats& it : window.stats) {
    iter_ms.push_back(it.compute_ms + it.comm_wait_ms);
  }
  const double final_loss = LossAt(window.stats, w.loss_iter);
  CheckTraining(session, window.stats, final_loss, report);

  report->Set("samples_per_s", window.FastQuartileSamplesPerSec(w.batch_per_worker));
  report->Set("iter_ms_p50", Quantile(iter_ms, 0.5));
  report->Set("iter_ms_p90", BlockP90(iter_ms));
  report->Set("setup_s", Quantile(setup_s, 0.5));
  report->Set("final_loss", final_loss);
  report->Set("peak_rss_mb", PeakRssMb());
  report->Set("iterations", static_cast<double>(window.stats.size()));
}

// The plan request the trainer builds for itself (PoseidonTrainer keeps its
// own private), rebuilt from the public coordinator and options.
PlanRequest TrainerPlanRequest(const PoseidonTrainer& trainer, const TrainerOptions& options) {
  PlanRequest req;
  req.model_name = options.model_name;
  const Coordinator& coordinator = trainer.coordinator();
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const LayerInfo& info = coordinator.layer(l);
    LayerSpec spec;
    spec.name = info.name;
    spec.type = info.type;
    spec.params = info.total_floats;
    spec.fc_m = info.fc_m;
    spec.fc_n = info.fc_n;
    req.layers.push_back(std::move(spec));
  }
  req.num_workers = options.num_workers;
  req.num_servers = options.num_servers;
  req.batch_per_worker = options.batch_per_worker;
  req.kv_pair_bytes = options.kv_pair_bytes;
  req.staleness = options.staleness;
  req.max_staleness = options.staleness;
  req.topk_density = options.topk_density;
  req.compression_min_floats = options.compression_min_floats;
  req.batch_max_messages = options.batch_options.max_batch_messages;
  req.batch_egress = options.batch_egress;
  if (options.plan_mode == TrainerPlanMode::kAuto) {
    req.ps_shards_pinned = options.shards_per_server;
    req.max_shards = kMaxAutoShards;
    req.allow_batching = true;
    req.policy = PlanPolicy::kAuto;
    req.codec = PlanCodecPolicy::kAuto;
    req.joint = true;
  } else {
    req.ps_shards_pinned = std::max(1, trainer.shards_per_server());
    req.paper_eval_shards = std::max(1, trainer.shards_per_server());
    req.policy = PlanPolicyFromFcPolicy(options.fc_policy);
    req.codec = PlanCodecPolicyFromCompression(options.ps_compression);
    req.joint = false;
  }
  return req;
}

// Registry codecs timed on the workload's layer shapes (one frame per
// layer), in floats per second.
void MeasureCodecs(PoseidonTrainer& trainer, uint64_t seed, std::map<std::string, double>* out) {
  std::vector<Tensor> grads;
  Rng rng(SubSeed(seed, 3));
  int64_t total = 0;
  for (int l = 0; l < trainer.coordinator().num_layers(); ++l) {
    const int64_t n = trainer.coordinator().layer(l).total_floats;
    if (n > 0) {
      grads.push_back(Tensor::RandomUniform({n}, -1e-2f, 1e-2f, rng));
      total += n;
    }
  }
  std::vector<std::vector<float>> residuals;
  std::vector<Payload> int8_frames;
  for (const Tensor& g : grads) {
    residuals.emplace_back(static_cast<size_t>(g.size()));
    int8_frames.push_back(Int8Codec::EncodeSr(g.data(), g.size(), 1, 0, nullptr, nullptr, 0));
  }
  const Codec& int8 = CodecRegistry::Get(WireCodec::kInt8);
  std::vector<Payload> raw_frames;
  for (const Tensor& g : grads) {
    raw_frames.push_back(RawFloatCodec::Encode(g.data(), g.size()));
  }
  Tensor dense;
  std::vector<float> bias;
  uint32_t clock = 0;
  const double encode_ns = MedianNsPerCall(
      [&] {
        TraceSpan span("bench.codec.int8_encode", "bench");
        ++clock;
        for (size_t i = 0; i < grads.size(); ++i) {
          int8_frames[i] = Int8Codec::EncodeSr(grads[i].data(), grads[i].size(), clock, 0,
                                               residuals[i].data(), nullptr, 0);
        }
      },
      5, 20.0);
  const double decode_ns = MedianNsPerCall(
      [&] {
        TraceSpan span("bench.codec.int8_decode", "bench");
        for (const Payload& frame : int8_frames) {
          CHECK(int8.Decode(frame.View(), &dense, &bias).ok());
        }
      },
      5, 20.0);
  const double raw_ns = MedianNsPerCall(
      [&] {
        TraceSpan span("bench.codec.raw_encode", "bench");
        for (size_t i = 0; i < grads.size(); ++i) {
          raw_frames[i] = RawFloatCodec::Encode(grads[i].data(), grads[i].size());
        }
      },
      5, 20.0);
  const double floats = static_cast<double>(total);
  (*out)["codec.int8_encode_floats_per_s"] = 1e9 * floats / encode_ns;
  (*out)["codec.int8_decode_floats_per_s"] = 1e9 * floats / decode_ns;
  (*out)["codec.raw_encode_floats_per_s"] = 1e9 * floats / raw_ns;
}

void RunTrainingTraced(const TrainWorkload& w, const Args& args, Report* report) {
  std::map<std::string, double> m;
  Session session = SetUp(w, args.seed);
  PoseidonTrainer& trainer = *session.trainer;
  const TrainerOptions options = MakeOptions(w);

  // 1. Untraced window: the reference for the tracing overhead and the
  //    compute / comm-wait split.
  const Window untraced = RunWindow(session, w.chunk_iters, 0.4 * args.seconds, 1);
  const double untraced_sps = untraced.SamplesPerSec(w.batch_per_worker);
  std::vector<double> compute_ms;
  std::vector<double> wait_ms;
  for (const IterationStats& it : untraced.stats) {
    compute_ms.push_back(it.compute_ms);
    wait_ms.push_back(it.comm_wait_ms);
  }
  m["trainer.compute_ms"] = Mean(compute_ms);
  m["trainer.comm_wait_ms"] = Mean(wait_ms);
  m["trainer.exposed_comm_frac"] = Mean(wait_ms) / (Mean(compute_ms) + Mean(wait_ms));

  // 2. Traced window: one Train() call (so the worker threads, and their
  //    trace rings, live for the whole window), sized to ~0.3 x seconds. The
  //    busiest thread records at most ~150 events per iteration on the
  //    41-layer models; rings get 6 per layer and iteration, so none drop.
  const double iters_per_s = untraced_sps / (kWorkers * w.batch_per_worker);
  const int iters =
      std::clamp(static_cast<int>(iters_per_s * 0.3 * args.seconds), 2 * kLossSpan, 400);
  const int num_layers = trainer.coordinator().num_layers();
  Tracer::Reset();
  Tracer::Enable(static_cast<int64_t>(iters) * (6 * num_layers + 32) + 4096);
  trainer.bus().EnableLinkStats();
  const std::vector<int64_t> tx_bytes0 = trainer.bus().TxBytes();
  const std::vector<int64_t> tx_msgs0 = trainer.bus().TxMessages();
  int64_t stall_ns0 = 0;
  for (int s = 0; s < kServers; ++s) {
    stall_ns0 += trainer.server(s).SspStallNs();
  }
  WireCopyStats::Reset();
  std::vector<IterationStats> traced;
  Stopwatch traced_watch;
  {
    TraceSpan span("bench.train_window", "bench");
    traced = trainer.Train(*session.dataset, iters);
  }
  const double traced_s = traced_watch.ElapsedSeconds();
  trainer.bus().FlushEgress();
  Tracer::Disable();
  const double traced_sps =
      static_cast<double>(iters) * kWorkers * w.batch_per_worker / traced_s;
  m["trace.overhead_frac"] = 1.0 - traced_sps / untraced_sps;
  m["trace.dropped"] = static_cast<double>(Tracer::dropped());
  report->Check("trace_no_drops", Tracer::dropped() == 0);
  const std::map<std::string, SpanStat> spans = ReduceSpans(Tracer::ExportChromeJson());
  Tracer::Reset();

  auto span_or_empty = [&](const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanStat() : it->second;
  };
  const double worker_iters = static_cast<double>(iters) * kWorkers;
  m["nn.forward_us"] = span_or_empty("forward").total_us / worker_iters;
  m["nn.backward_us"] = span_or_empty("backward").total_us / worker_iters;
  m["sync.send_us"] = span_or_empty("sync.send").total_us / iters;
  m["sync.move_out_us"] = span_or_empty("sync.move_out").total_us / iters;
  m["sync.receive_us"] = span_or_empty("sync.receive").total_us / iters;
  m["sync.calls_per_iter"] = static_cast<double>(span_or_empty("sync.send").count) / worker_iters;
  m["collective.send_hop_us"] = span_or_empty("collective.send_hop").total_us / iters;
  m["collective.recv_hop_us"] = span_or_empty("collective.recv_hop").total_us / iters;
  const SpanStat apply = span_or_empty("kv.apply");
  m["kv.apply_us_p50"] = Quantile(apply.durations_us, 0.5);
  m["kv.apply_us_per_iter"] = apply.total_us / iters;
  m["kv.apply_calls_per_iter"] = static_cast<double>(apply.count) / iters;
  int64_t stall_ns = -stall_ns0;
  for (int s = 0; s < kServers; ++s) {
    stall_ns += trainer.server(s).SspStallNs();
  }
  m["kv.ssp_stall_us_per_iter"] = static_cast<double>(stall_ns) / 1e3 / iters;
  m["codec.encode_us"] = TotalUsWithPrefix(spans, "codec.encode.") / iters;
  m["codec.decode_us"] = TotalUsWithPrefix(spans, "codec.decode.") / iters;
  m["bus.deliver_batch_us"] = span_or_empty("bus.deliver_batch").total_us / iters;

  // Expected spans: every mechanism the plan in force uses must leave spans,
  // or its per-layer numbers would be vacuous.
  const CommPlan& plan = *trainer.plan();
  auto plan_uses = [&](auto pred) {
    return std::any_of(plan.layers.begin(), plan.layers.end(), pred);
  };
  if (plan_uses([](const PlanLayerChoice& l) { return l.scheme == PlannedScheme::kPS; })) {
    report->Check("spans_kv_apply", apply.count > 0);
  }
  if (plan_uses([](const PlanLayerChoice& l) { return l.compression == GradCompression::kInt8; })) {
    report->Check("spans_codec_encode_int8", span_or_empty("codec.encode.int8").count > 0);
  }
  if (plan.batch_egress) {
    report->Check("spans_bus_deliver_batch", span_or_empty("bus.deliver_batch").count > 0);
  }

  // Bus: busiest node's egress over the traced window, link latencies.
  const std::vector<int64_t> tx_bytes1 = trainer.bus().TxBytes();
  const std::vector<int64_t> tx_msgs1 = trainer.bus().TxMessages();
  double busiest_bytes = 0.0;
  double busiest_msgs = 0.0;
  for (size_t n = 0; n < tx_bytes1.size(); ++n) {
    busiest_bytes = std::max(busiest_bytes, static_cast<double>(tx_bytes1[n] - tx_bytes0[n]));
    busiest_msgs = std::max(busiest_msgs, static_cast<double>(tx_msgs1[n] - tx_msgs0[n]));
  }
  m["bus.tx_bytes_per_iter"] = busiest_bytes / iters;
  m["bus.tx_msgs_per_iter"] = busiest_msgs / iters;
  Histogram::Snapshot latency;
  for (const LinkStat& link : trainer.bus().SnapshotLinkStats().links) {
    const Histogram::Snapshot& h = link.delivery_latency_ns;
    if (latency.counts.empty()) {
      latency = h;
      continue;
    }
    for (size_t b = 0; b < h.counts.size(); ++b) {
      latency.counts[b] += h.counts[b];
    }
    latency.total_count += h.total_count;
    latency.sum += h.sum;
    latency.max = std::max(latency.max, h.max);
  }
  m["bus.delivery_latency_us_p50"] = HistogramQuantile(latency, 0.5) / 1e3;
  m["bus.delivery_latency_us_p99"] = HistogramQuantile(latency, 0.99) / 1e3;
  m["wire.copies_per_iter"] = static_cast<double>(WireCopyStats::Copies()) / iters;
  m["wire.copied_floats_per_iter"] = static_cast<double>(WireCopyStats::Floats()) / iters;

  // Planner: cold search and cache hit on the trainer's own request, and the
  // plan's busiest-worker prediction over what the bus measured.
  const PlanRequest request = TrainerPlanRequest(trainer, options);
  CHECK_EQ(PlanComm(request).hash, trainer.plan()->hash)
      << "rebuilt plan request does not reproduce the trainer's plan";
  m["planner.search_us"] = MedianNsPerCall(
                               [&] {
                                 TraceSpan span("bench.planner.search", "bench");
                                 const CommPlan plan = PlanComm(request);
                                 CHECK_NE(plan.hash, 0u);
                               },
                               5, 10.0) /
                           1e3;
  PlanCache cache;
  cache.GetOrPlan(request);
  m["planner.cache_hit_us"] =
      MedianNsPerCall([&] { CHECK(cache.GetOrPlan(request) != nullptr); }, 5, 10.0) / 1e3;
  m["planner.pred_over_meas_bytes"] =
      (plan.predicted_wire_bytes + plan.predicted_framing_bytes) / (busiest_bytes / iters);
  m["planner.pred_over_meas_msgs"] = plan.predicted_msgs / (busiest_msgs / iters);

  // Codecs on this workload's layer shapes.
  MeasureCodecs(trainer, args.seed, &m);

  // Single-worker baseline: same model, per-worker batch and seed, trained
  // on one thread with no communication.
  {
    TraceSpan span("bench.single_node", "bench");
    std::unique_ptr<Network> net = MakeFactory(w, args.seed)();
    SgdOptimizer optimizer(options.sgd);
    Stopwatch watch;
    int64_t single_iters = 0;
    while (watch.ElapsedSeconds() < 0.15 * args.seconds) {
      TrainSingleNode(*net, *session.dataset, optimizer, w.chunk_iters, w.batch_per_worker,
                      single_iters);
      single_iters += w.chunk_iters;
    }
    const double single_sps =
        static_cast<double>(single_iters) * w.batch_per_worker / watch.ElapsedSeconds();
    m["nn.single_samples_per_s"] = single_sps;
    m["trainer.scaling_eff"] = untraced_sps / (kWorkers * single_sps);
  }

  std::vector<IterationStats> window = untraced.stats;
  window.insert(window.end(), traced.begin(), traced.end());
  CheckTraining(session, window, LossAt(window, static_cast<int>(window.size())), report);
  // Only what this workload measured; run.py reports the rest as 0.
  for (const auto& [name, value] : m) {
    report->Set(name, value);
  }
}

// ------------------------------------------------------------ sim-sweep ----

struct SweepPoint {
  std::shared_ptr<const ModelSpec> model;
  int nodes;
  double gbps;
};

struct PointResult {
  SimResult poseidon;
  SimResult planned;
};

const char* const kSweepModels[] = {"vgg19-22k", "vgg19", "inception-v3", "googlenet",
                                    "resnet-152"};
// 32 nodes is left out: one 32-node point simulates for 0.2-1 s, so a pass
// would take longer than a whole run.
const int kSweepNodes[] = {1, 2, 4, 8, 16};
const double kSweepGbps[] = {10.0, 40.0};

// One sweep point: a cold joint plan, then the paper's Poseidon system and
// the planned system simulated on the same cluster.
PointResult RunPoint(const SweepPoint& p) {
  PointResult result;
  std::shared_ptr<const CommPlan> plan;
  {
    TraceSpan span("bench.planner.plan_comm", "bench");
    plan = std::make_shared<const CommPlan>(
        PlanComm(JointAutoRequest(*p.model, p.nodes, p.gbps, kMaxAutoShards)));
  }
  ClusterSpec cluster;
  cluster.num_nodes = p.nodes;
  cluster.nic_gbps = p.gbps;
  TraceSpan span("bench.sim.simulate", "bench");
  result.poseidon = RunProtocolSimulation(*p.model, PoseidonSystem(), cluster, Engine::kCaffe);
  result.planned = RunProtocolSimulation(*p.model, PlannedSystem(plan), cluster, Engine::kCaffe);
  return result;
}

bool SpeedupValid(const SimResult& r, int nodes) {
  return std::isfinite(r.speedup) && r.speedup > 0.0 && r.speedup <= nodes;
}

struct Sweep {
  std::vector<std::shared_ptr<const ModelSpec>> models;
  std::vector<SweepPoint> points;  // seeded order
};

Sweep MakeSweep(uint64_t seed) {
  Sweep sweep;
  for (const char* name : kSweepModels) {
    sweep.models.push_back(std::make_shared<const ModelSpec>(ModelByName(name).value()));
  }
  for (const auto& model : sweep.models) {
    for (int nodes : kSweepNodes) {
      for (double gbps : kSweepGbps) {
        sweep.points.push_back({model, nodes, gbps});
      }
    }
  }
  Rng rng(SubSeed(seed, 4));
  for (size_t i = sweep.points.size(); i > 1; --i) {
    std::swap(sweep.points[i - 1], sweep.points[rng.NextBounded(i)]);
  }
  return sweep;
}

// Runs whole passes over the sweep until `min_seconds` have elapsed (at
// least one), checking every point.
// A pass costs the same every time, so unlike training (see Window) a plain
// mean over whole passes measured steadier than the fast quartile of passes.
struct SweepWindow {
  std::vector<double> point_ms;
  double seconds = 0.0;
  double scaling_loss = 0.0;  // mean of 1 - speedup/nodes over one pass

  double PointsPerSec() const { return static_cast<double>(point_ms.size()) / seconds; }
};

SweepWindow RunSweepWindow(const Sweep& sweep, double min_seconds, Report* report) {
  SweepWindow window;
  Stopwatch watch;
  do {
    double loss_sum = 0.0;
    for (const SweepPoint& p : sweep.points) {
      Stopwatch point_watch;
      const PointResult r = RunPoint(p);
      window.point_ms.push_back(point_watch.ElapsedMillis());
      ++report->attempted;
      const bool ok = SpeedupValid(r.poseidon, p.nodes) && SpeedupValid(r.planned, p.nodes);
      report->failed += ok ? 0 : 1;
      loss_sum += (1.0 - r.poseidon.speedup / p.nodes) + (1.0 - r.planned.speedup / p.nodes);
    }
    window.scaling_loss = loss_sum / (2.0 * static_cast<double>(sweep.points.size()));
  } while (watch.ElapsedSeconds() < min_seconds);
  window.seconds = watch.ElapsedSeconds();
  return window;
}

// Set-up: build the zoo models and the seeded point order, then warm up with
// one point per model.
Sweep SetUpSweep(uint64_t seed) {
  Sweep sweep = MakeSweep(seed);
  for (const auto& model : sweep.models) {
    RunPoint({model, 8, 10.0});
  }
  return sweep;
}

// Re-simulating a point must reproduce its iteration time bit for bit.
void CheckSimDeterminism(const Sweep& sweep, uint64_t seed, Report* report) {
  const SweepPoint& p = sweep.points[Rng(SubSeed(seed, 5)).NextBounded(sweep.points.size())];
  const PointResult a = RunPoint(p);
  const PointResult b = RunPoint(p);
  report->Check("sim_bitwise_repeatable",
                std::memcmp(&a.poseidon.iter_time_s, &b.poseidon.iter_time_s, sizeof(double)) ==
                        0 &&
                    std::memcmp(&a.planned.iter_time_s, &b.planned.iter_time_s,
                                sizeof(double)) == 0);
}

void RunSimSweepUntraced(const Args& args, Report* report) {
  constexpr int kSetups = 7;
  std::vector<double> setup_s;
  Sweep sweep;
  for (int i = 0; i < kSetups; ++i) {
    Stopwatch watch;
    sweep = SetUpSweep(args.seed);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  const SweepWindow window = RunSweepWindow(sweep, args.seconds, report);
  report->Check("sim_speedups_valid", report->failed == 0);
  CheckSimDeterminism(sweep, args.seed, report);
  if (!report->AllChecksPass()) {
    report->failed = report->attempted;
  }
  report->Set("samples_per_s", window.PointsPerSec());
  report->Set("iter_ms_p50", Quantile(window.point_ms, 0.5));
  report->Set("iter_ms_p90", Quantile(window.point_ms, 0.9));
  report->Set("setup_s", Quantile(setup_s, 0.5));
  report->Set("final_loss", window.scaling_loss);
  report->Set("peak_rss_mb", PeakRssMb());
  report->Set("iterations", static_cast<double>(window.point_ms.size()));
}

void RunSimSweepTraced(const Args& args, Report* report) {
  std::map<std::string, double> m;
  const Sweep sweep = SetUpSweep(args.seed);
  const SweepWindow untraced = RunSweepWindow(sweep, 0.3 * args.seconds, report);

  // Four events per point (two spans); room for twice the untraced passes.
  const int64_t passes =
      static_cast<int64_t>(untraced.point_ms.size() / sweep.points.size());
  Tracer::Reset();
  Tracer::Enable(4 * static_cast<int64_t>(sweep.points.size()) * (2 * passes + 2) + 4096);
  const SweepWindow traced = RunSweepWindow(sweep, 0.3 * args.seconds, report);
  Tracer::Disable();
  m["trace.dropped"] = static_cast<double>(Tracer::dropped());
  report->Check("trace_no_drops", Tracer::dropped() == 0);
  m["trace.overhead_frac"] = 1.0 - traced.PointsPerSec() / untraced.PointsPerSec();
  const std::map<std::string, SpanStat> spans = ReduceSpans(Tracer::ExportChromeJson());
  Tracer::Reset();
  const auto sim = spans.find("bench.sim.simulate");
  const auto plan = spans.find("bench.planner.plan_comm");
  report->Check("spans_sim", sim != spans.end() && sim->second.count > 0);
  report->Check("spans_planner", plan != spans.end() && plan->second.count > 0);
  if (sim != spans.end()) {
    m["sim.run_ms_p50"] = Quantile(sim->second.durations_us, 0.5) / 1e3;
    m["sim.run_ms_p90"] = Quantile(sim->second.durations_us, 0.9) / 1e3;
  }
  if (plan != spans.end()) {
    m["planner.search_us"] = Quantile(plan->second.durations_us, 0.5);
  }

  const ModelSpec& headline_model = *sweep.models.front();  // vgg19-22k
  const PlanRequest request = JointAutoRequest(headline_model, 16, 10.0, kMaxAutoShards);
  PlanCache cache;
  cache.GetOrPlan(request);
  m["planner.cache_hit_us"] =
      MedianNsPerCall([&] { CHECK(cache.GetOrPlan(request) != nullptr); }, 5, 10.0) / 1e3;
  ClusterSpec cluster;
  cluster.num_nodes = 16;
  cluster.nic_gbps = 10.0;
  m["sim.speedup.vgg19-22k.16n.10g"] =
      RunProtocolSimulation(headline_model, PoseidonSystem(), cluster, Engine::kCaffe).speedup;

  report->Check("sim_speedups_valid", report->failed == 0);
  CheckSimDeterminism(sweep, args.seed, report);
  if (!report->AllChecksPass()) {
    report->failed = report->attempted;
  }
  // Only what this workload measured; run.py reports the rest as 0.
  for (const auto& [name, value] : m) {
    report->Set(name, value);
  }
}

// ----------------------------------------------------------------- main ----

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  Report report;
  if (args.workload == "sim-sweep") {
    args.trace ? RunSimSweepTraced(args, &report) : RunSimSweepUntraced(args, &report);
  } else {
    const TrainWorkload* workload = nullptr;
    for (const TrainWorkload& w : kTrainWorkloads) {
      if (args.workload == w.name) {
        workload = &w;
      }
    }
    if (workload == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    args.trace ? RunTrainingTraced(*workload, args, &report)
               : RunTrainingUntraced(*workload, args, &report);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace poseidon

int main(int argc, char** argv) { return poseidon::Main(argc, argv); }
