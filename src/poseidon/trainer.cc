#include "src/poseidon/trainer.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/planner/plan_cache.h"
#include "src/stats/stopwatch.h"
#include "src/stats/trace.h"

namespace poseidon {

PoseidonTrainer::PoseidonTrainer(NetworkFactory factory, TrainerOptions options)
    : options_(options), factory_(std::move(factory)) {
  CHECK_GT(options_.num_workers, 0);
  CHECK_GT(options_.num_servers, 0);
  CHECK_GE(options_.server_node_base, 0);
  CHECK(!options_.batch_egress)
      << "TrainerOptions::batch_egress is an inert leftover: the bus has no "
         "egress batcher, every message leaves on its sender's thread";
  if (options_.crash.active()) {
    CHECK(options_.failure_detection.enabled)
        << "a crash plan without failure detection deadlocks the cluster";
    CHECK_GT(options_.checkpoint_every, 0) << "recovery requires checkpoints";
    CHECK(!options_.checkpoint_dir.empty()) << "recovery requires a checkpoint dir";
  }

  // Identical replicas: the factory must be deterministic.
  init_net_ = factory_();
  for (int w = 0; w < options_.num_workers; ++w) {
    worker_nets_.push_back(factory_());
    CHECK_EQ(worker_nets_.back()->num_layers(), init_net_->num_layers());
    crashed_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
  if (!options_.restore_path.empty()) {
    // Restore parameters into every replica (and into the init net the KV
    // shards take their master copies from) before anything starts serving.
    StatusOr<int64_t> restored = LoadCheckpoint(options_.restore_path, init_net_.get());
    CHECK(restored.ok()) << restored.status().ToString();
    next_iter_ = *restored;
    for (auto& net : worker_nets_) {
      CHECK(LoadCheckpoint(options_.restore_path, net.get()).ok());
    }
  }

  plan_ = AssembleRuntime(*init_net_, options_, &coordinator_);
  StartCommStack();

  if (options_.plan_feedback) {
    CHECK(options_.plan_mode == TrainerPlanMode::kAuto)
        << "bandwidth feedback re-plans the joint search; use plan_mode = kAuto";
    CHECK(!options_.crash.active() && !options_.failure_detection.enabled)
        << "plan swaps and failure recovery cannot compose";
    replanner_ = std::make_unique<Replanner>(RuntimePlanRequest(*coordinator_, options_),
                                             options_.replan_options, &PlanCache::Global());
  }

  if (options_.failure_detection.enabled) {
    detector_ = std::make_unique<FailureDetector>(
        bus_.get(), options_.num_workers, options_.failure_detection,
        [this](int w) { OnWorkerSuspected(w); });
    detector_->Start();
    for (int w = 0; w < options_.num_workers; ++w) {
      tickers_.push_back(std::make_unique<HeartbeatTicker>(w, bus_.get(),
                                                           options_.failure_detection));
    }
  }
}

std::unique_ptr<MessageBus> MakeRuntimeBus(const TrainerOptions& options) {
  auto bus = std::make_unique<MessageBus>(
      std::max(options.num_workers, options.server_node_base + options.num_servers));
  if (options.enable_faults || options.fault_plan.any()) {
    bus->EnableFaultInjection(options.fault_plan);
  }
  return bus;
}

void PoseidonTrainer::StartCommStack() {
  CHECK(servers_.empty() && clients_.empty());
  bus_ = MakeRuntimeBus(options_);
  if (options_.plan_feedback) {
    bus_->EnableLinkStats();
  }
  for (int s = 0; s < options_.num_servers; ++s) {
    servers_.push_back(std::make_unique<KvServer>(s, next_iter_, *coordinator_, *plan_,
                                                  *init_net_, bus_.get(), options_.sgd));
  }
  for (int w = 0; w < options_.num_workers; ++w) {
    clients_.push_back(MakeClient(w));
  }
  for (auto& server : servers_) {
    server->Start();
  }
}

std::unique_ptr<ClientLibrary> PoseidonTrainer::MakeClient(int w) {
  return std::make_unique<ClientLibrary>(w, *coordinator_, *plan_,
                                         worker_nets_[static_cast<size_t>(w)].get(),
                                         bus_.get(), options_.sgd, options_.syncer_threads);
}

PlanRequest RuntimePlanRequest(const Coordinator& coordinator, const TrainerOptions& options) {
  PlanRequest req;
  req.model_name = options.model_name;
  req.layers.reserve(static_cast<size_t>(coordinator.num_layers()));
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
  if (options.plan_mode == TrainerPlanMode::kAuto) {
    // Joint search over everything the options left open; a non-zero
    // shards_per_server stays a hard pin.
    req.ps_shards_pinned = options.shards_per_server;
    req.max_shards = kMaxAutoShards;
    req.policy = PlanPolicy::kAuto;
    req.codec = PlanCodecPolicy::kAuto;
    req.joint = true;
  } else if (options.shards_per_server == 0) {
    // Paper mode, auto-sharding: schemes are costed at one shard, the
    // busiest PS layer sizes the pool, schemes are re-costed there.
    req.max_shards = kMaxAutoShards;
    req.policy = options.fc_policy;
    req.codec = options.ps_compression;
  } else {
    req.ps_shards_pinned = options.shards_per_server;
    req.paper_eval_shards = options.shards_per_server;
    req.policy = options.fc_policy;
    req.codec = options.ps_compression;
  }
  return req;
}

std::shared_ptr<const CommPlan> RuntimePlan(const Coordinator& coordinator,
                                            const TrainerOptions& options) {
  if (options.plan_mode == TrainerPlanMode::kFixed) {
    CHECK(options.fixed_plan != nullptr) << "plan_mode = kFixed needs a fixed_plan";
    return options.fixed_plan;
  }
  return PlanCache::Global().GetOrPlan(RuntimePlanRequest(coordinator, options));
}

void CheckRuntimePlan(const CommPlan& plan, const Coordinator& coordinator) {
  CHECK_EQ(plan.layers.size(), static_cast<size_t>(coordinator.num_layers()))
      << "plan does not match the model (layer count)";
  for (int l = 0; l < coordinator.num_layers(); ++l) {
    const PlanLayerChoice& choice = plan.layers[static_cast<size_t>(l)];
    CHECK(choice.layer == coordinator.layer(l).name)
        << "plan layer " << l << " is '" << choice.layer << "', model has '"
        << coordinator.layer(l).name << "'";
    CHECK(choice.scheme != PlannedScheme::kAdamSf)
        << "plan layer '" << choice.layer << "' uses " << PlannedSchemeName(choice.scheme)
        << ", which only the simulator prices; the runtime cannot execute it";
  }
}

std::shared_ptr<const CommPlan> AssembleRuntime(Network& init_net,
                                                const TrainerOptions& options,
                                                std::unique_ptr<Coordinator>* coordinator) {
  CHECK_GE(options.shards_per_server, 0);
  CHECK_GE(options.staleness, 0);
  ClusterInfo cluster;
  cluster.num_workers = options.num_workers;
  cluster.num_servers = options.num_servers;
  cluster.shards_per_server = std::max(1, options.shards_per_server);
  cluster.server_node_base = options.server_node_base;
  cluster.staleness = options.staleness;
  cluster.batch_per_worker = options.batch_per_worker;
  cluster.kv_pair_bytes = options.kv_pair_bytes;
  *coordinator = std::make_unique<Coordinator>(init_net, cluster);
  std::shared_ptr<const CommPlan> plan = RuntimePlan(**coordinator, options);
  if (plan->ps_shards != cluster.shards_per_server) {
    // The plan sized the shard pool (auto-sharding, or a fixed/auto plan's
    // own count): repartition the KV pairs over that endpoint space.
    cluster.shards_per_server = plan->ps_shards;
    *coordinator = std::make_unique<Coordinator>(init_net, cluster);
  }
  CheckRuntimePlan(*plan, **coordinator);
  return plan;
}

void PoseidonTrainer::AdoptPlan(std::shared_ptr<const CommPlan> new_plan) {
  CHECK(!shut_down_);
  CHECK(new_plan != nullptr);
  if (plan_ != nullptr && new_plan->hash == plan_->hash) {
    return;  // already running this plan
  }
  CHECK_EQ(options_.staleness, 0)
      << "plan swaps need BSP: replicas must be identical at the boundary";
  CHECK_EQ(new_plan->staleness, 0);
  CHECK(!options_.crash.active() && detector_ == nullptr)
      << "plan swaps and failure recovery cannot compose";
  CheckRuntimePlan(*new_plan, *coordinator_);

  // Quiesce the old communication stack. Workers are parked between Train()
  // windows, so nothing is in flight beyond the shards' run loops.
  for (auto& server : servers_) {
    server->Shutdown();
  }
  bus_->CloseAll();
  clients_.clear();
  servers_.clear();

  // Under BSP the replicas are identical here; refresh the init net so the
  // new KV masters adopt the live parameters bitwise.
  auto src = worker_nets_[0]->LayerParams();
  auto dst = init_net_->LayerParams();
  CHECK_EQ(src.size(), dst.size());
  for (size_t l = 0; l < src.size(); ++l) {
    CHECK_EQ(src[l].size(), dst[l].size());
    for (size_t b = 0; b < src[l].size(); ++b) {
      const Tensor& from = *src[l][b].value;
      Tensor& to = *dst[l][b].value;
      CHECK_EQ(from.size(), to.size());
      std::copy(from.data(), from.data() + from.size(), to.data());
    }
  }

  ClusterInfo cluster = coordinator_->cluster();
  cluster.shards_per_server = new_plan->ps_shards;
  coordinator_ = std::make_unique<Coordinator>(*init_net_, cluster);
  plan_ = std::move(new_plan);
  StartCommStack();  // a fresh fabric under the new plan
}

void PoseidonTrainer::MaybeReplan() {
  const ObservedLinkStats window = bus_->SnapshotLinkStatsDelta();
  const ReplanDecision decision = replanner_->Observe(window);
  if (!decision.replan || decision.plan == nullptr ||
      decision.plan->hash == plan_->hash) {
    return;
  }
  LOG(Info) << "replanning at iteration " << next_iter_ << ": observed "
            << decision.observed_gbps << " Gbps (divergence " << decision.divergence
            << "), plan " << std::hex << plan_->hash << " -> " << decision.plan->hash
            << std::dec;
  ++replan_count_;
  AdoptPlan(decision.plan);
}

PoseidonTrainer::~PoseidonTrainer() { Shutdown(); }

void PoseidonTrainer::Shutdown() {
  if (shut_down_) {
    return;
  }
  shut_down_ = true;
  // Liveness machinery first: no beats, suspicions, or recoveries may fire
  // once teardown starts.
  tickers_.clear();
  if (detector_ != nullptr) {
    detector_->Shutdown();
  }
  for (auto& server : servers_) {
    server->Shutdown();
  }
  bus_->CloseAll();
}

void PoseidonTrainer::RunWorkerLoop(int w, int64_t from_iter) {
  const int num_workers = options_.num_workers;
  const int64_t end_iter = window_.first_iter + window_.iterations;
  Network& net = *worker_nets_[static_cast<size_t>(w)];
  ClientLibrary& client = *clients_[static_cast<size_t>(w)];
  for (int64_t iter = from_iter; iter < end_iter; ++iter) {
    TraceSpan iteration_span("iteration", "trainer", iter);
    const size_t i = static_cast<size_t>(iter - window_.first_iter);
    const Batch batch =
        window_.dataset->TrainBatch(iter, options_.batch_per_worker, w, num_workers);
    Stopwatch compute_watch;
    LossResult result;
    {
      TraceSpan forward_span("forward", "trainer", iter);
      result = net.Forward(batch.images, batch.labels);
    }
    (*window_.losses)[static_cast<size_t>(w)][i] = result.loss;
    (*window_.accuracies)[static_cast<size_t>(w)][i] = result.accuracy;
    client.StartIteration(iter);
    const bool crash_now = options_.crash.active() && w == options_.crash.worker &&
                           iter == options_.crash.iter &&
                           !crash_fired_.load(std::memory_order_acquire);
    int backward_steps = 0;
    for (int l = net.num_layers() - 1; l >= 0; --l) {
      if (crash_now && backward_steps >= options_.crash.layers_before_crash) {
        break;
      }
      {
        TraceSpan backward_span("backward", "trainer", l);
        net.BackwardThrough(l);
      }
      client.ScheduleSync(l);  // wait-free backpropagation
      ++backward_steps;
    }
    const int64_t compute_ns = compute_watch.ElapsedNs();
    if (crash_now) {
      // Simulated process death: in-flight sync jobs are orphaned, beats
      // cease, no WaitAll, no cleanup. The failure detector takes it from
      // here (OnWorkerSuspected -> RecoverWorker).
      crash_fired_.store(true, std::memory_order_release);
      crashed_[static_cast<size_t>(w)]->store(true, std::memory_order_release);
      tickers_[static_cast<size_t>(w)]->Stop();
      LOG(Warning) << "worker " << w << " crashed at iteration " << iter << " after "
                   << backward_steps << " backward steps";
      return;
    }
    Stopwatch wait_watch;
    {
      TraceSpan wait_span("wait_all", "trainer", iter);
      client.WaitAll();  // BSP barrier: every layer synchronized
    }
    const int64_t wait_ns = wait_watch.ElapsedNs();
    (*window_.compute_ms)[static_cast<size_t>(w)][i] =
        static_cast<double>(compute_ns) * 1e-6;
    (*window_.comm_wait_ms)[static_cast<size_t>(w)][i] =
        static_cast<double>(wait_ns) * 1e-6;
    compute_ns_total_.fetch_add(compute_ns, std::memory_order_relaxed);
    comm_wait_ns_total_.fetch_add(wait_ns, std::memory_order_relaxed);
    MaybeCheckpoint(w, iter + 1);
  }
}

std::string PoseidonTrainer::CheckpointPath(int w) const {
  return options_.checkpoint_dir + "/worker_" + std::to_string(w) + ".ckpt";
}

void PoseidonTrainer::MaybeCheckpoint(int w, int64_t next_iter) {
  if (options_.checkpoint_every <= 0 || options_.checkpoint_dir.empty()) {
    return;
  }
  if (next_iter % options_.checkpoint_every != 0 && next_iter != window_.first_iter) {
    return;
  }
  const Status saved =
      SaveCheckpoint(*worker_nets_[static_cast<size_t>(w)], next_iter, CheckpointPath(w));
  CHECK(saved.ok()) << saved.ToString();
}

void PoseidonTrainer::OnWorkerSuspected(int w) {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  if (!crashed_[static_cast<size_t>(w)]->load(std::memory_order_acquire)) {
    // False positive (late heartbeats under load). Clear the suspicion so
    // the detector re-arms — a latched suspicion would suppress the callback
    // for a later real crash of this worker and hang the cluster.
    LOG(Warning) << "failure detector suspected live worker " << w
                 << " (late heartbeats); clearing";
    detector_->NotifyRecovered(w);
    return;
  }
  ++recoveries_in_flight_;
  recovery_threads_.emplace_back([this, w] { RecoverWorker(w); });
}

void PoseidonTrainer::RecoverWorker(int w) {
  TraceSpan recovery_span("recovery", "trainer", w);
  // 1. Fence the dead incarnation: close + unregister its data endpoints
  // (syncer + collective ports, NOT the coordinator's monitor mailbox — a
  // colocated monitor survives the worker-process death) so orphaned sync
  // jobs wake (their Receive abandons) and the old client library can
  // drain. Replies the shards send into this window are dropped and
  // re-earned by the replay.
  bus_->CloseEndpoints(w, kSyncerPortBase, kMonitorPort);
  clients_[static_cast<size_t>(w)].reset();

  // 2. Rehydrate a fresh replica from the latest recovery checkpoint; its
  // cursor is the in-flight clock to replay.
  auto net = factory_();
  StatusOr<int64_t> cursor = LoadCheckpoint(CheckpointPath(w), net.get());
  CHECK(cursor.ok()) << "worker " << w << " restart: " << cursor.status().ToString();
  worker_nets_[static_cast<size_t>(w)] = std::move(net);

  // 3. Re-register with the shards: a fresh client library recreates every
  // syncer mailbox at the same addresses (sequence streams just continue).
  clients_[static_cast<size_t>(w)] = MakeClient(w);

  // 4. Rejoin the cluster and replay from the checkpoint cursor. The replay
  // re-pushes the in-flight clock; shard reconciliation applies each
  // (layer, clock) aggregate exactly once (see KvShard).
  crashed_[static_cast<size_t>(w)]->store(false, std::memory_order_release);
  detector_->NotifyRecovered(w);
  tickers_[static_cast<size_t>(w)]->Resume();
  LOG(Info) << "worker " << w << " restarted from iteration " << *cursor;
  RunWorkerLoop(w, *cursor);
  recoveries_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    --recoveries_in_flight_;
  }
  recovery_cv_.notify_all();
}

std::vector<IterationStats> PoseidonTrainer::Train(const SyntheticDataset& dataset,
                                                   int iterations) {
  CHECK(!shut_down_);
  CHECK_GT(iterations, 0);
  const int num_workers = options_.num_workers;
  std::vector<std::vector<double>> losses(
      static_cast<size_t>(num_workers),
      std::vector<double>(static_cast<size_t>(iterations), 0.0));
  std::vector<std::vector<double>> accuracies = losses;
  std::vector<std::vector<double>> compute_ms = losses;
  std::vector<std::vector<double>> comm_wait_ms = losses;

  const int64_t first_iter = next_iter_;
  window_ = TrainWindow{&dataset,    first_iter,  iterations,   &losses,
                        &accuracies, &compute_ms, &comm_wait_ms};
  if (options_.checkpoint_every > 0 && !options_.checkpoint_dir.empty()) {
    // Baseline checkpoint so a crash in the very first window iteration can
    // restart (replicas are quiescent and identical here).
    for (int w = 0; w < num_workers; ++w) {
      MaybeCheckpoint(w, first_iter);
    }
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    threads.emplace_back([this, w, first_iter] { RunWorkerLoop(w, first_iter); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // A crashed worker's thread returned early; its recovery thread finishes
  // the window. Wait for the restart to be spawned and completed before
  // declaring the window done.
  if (options_.crash.active() && crash_fired_.load()) {
    std::unique_lock<std::mutex> lock(recovery_mutex_);
    recovery_cv_.wait(lock, [&] {
      return recoveries_in_flight_ == 0 &&
             !crashed_[static_cast<size_t>(options_.crash.worker)]->load();
    });
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    for (auto& thread : recovery_threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
    recovery_threads_.clear();
  }
  next_iter_ += iterations;
  if (replanner_ != nullptr) {
    // Bandwidth feedback fires only at this window boundary, never mid-
    // iteration, so the swap schedule is a pure function of the observed
    // windows (determinism contract, docs/PLANNER.md).
    MaybeReplan();
  }

  std::vector<IterationStats> stats(static_cast<size_t>(iterations));
  for (int i = 0; i < iterations; ++i) {
    IterationStats& s = stats[static_cast<size_t>(i)];
    s.iter = first_iter + i;
    for (int w = 0; w < num_workers; ++w) {
      s.mean_loss += losses[static_cast<size_t>(w)][static_cast<size_t>(i)];
      s.mean_accuracy += accuracies[static_cast<size_t>(w)][static_cast<size_t>(i)];
      s.compute_ms += compute_ms[static_cast<size_t>(w)][static_cast<size_t>(i)];
      s.comm_wait_ms += comm_wait_ms[static_cast<size_t>(w)][static_cast<size_t>(i)];
    }
    s.mean_loss /= num_workers;
    s.mean_accuracy /= num_workers;
    s.compute_ms /= num_workers;
    s.comm_wait_ms /= num_workers;
  }
  return stats;
}

StallBreakdown PoseidonTrainer::stall_breakdown() const {
  StallBreakdown breakdown;
  breakdown.compute_s =
      static_cast<double>(compute_ns_total_.load(std::memory_order_relaxed)) * 1e-9;
  breakdown.comm_wait_s =
      static_cast<double>(comm_wait_ns_total_.load(std::memory_order_relaxed)) * 1e-9;
  int64_t ssp_ns = 0;
  for (const auto& server : servers_) {
    ssp_ns += server->SspStallNs();
  }
  breakdown.ssp_stall_s = static_cast<double>(ssp_ns) * 1e-9;
  return breakdown;
}

LossResult PoseidonTrainer::EvaluateTest(const SyntheticDataset& dataset) {
  const Batch test = dataset.TestSet();
  return worker_net(0).Evaluate(test.images, test.labels);
}

Status PoseidonTrainer::SaveCheckpointTo(const std::string& path) {
  return SaveCheckpoint(worker_net(0), next_iter_, path);
}

int PoseidonTrainer::shards_per_server() const {
  return coordinator_->cluster().shards_per_server;
}

Network& PoseidonTrainer::worker_net(int w) {
  CHECK_GE(w, 0);
  CHECK_LT(w, options_.num_workers);
  return *worker_nets_[static_cast<size_t>(w)];
}

}  // namespace poseidon
