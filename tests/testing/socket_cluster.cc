#include "tests/testing/socket_cluster.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#include "src/poseidon/workloads.h"
#include "src/transport/cluster_launcher.h"
#include "tests/testing/subprocess.h"

namespace poseidon {
namespace testing {
namespace {

void Accumulate(const FaultCountersSnapshot& add, FaultCountersSnapshot* into) {
  into->drops += add.drops;
  into->retransmits += add.retransmits;
  into->duplicates += add.duplicates;
  into->delays += add.delays;
  into->partition_holds += add.partition_holds;
  into->deduped += add.deduped;
  into->reordered += add.reordered;
  into->dropped_replies += add.dropped_replies;
}

}  // namespace

SocketClusterRun RunSocketCluster(const SocketClusterOptions& options) {
  const int base = options.colocate ? 0 : options.workers;
  const int num_nodes = std::max(options.workers, base + options.servers);
  const int num_processes = num_nodes + 1;  // + the controller, process 0
  const std::string dir = MakeTempDir("socket_cluster");

  std::vector<SocketEndpoint> endpoints;
  for (int p = 0; p < num_processes; ++p) {
    SocketEndpoint ep;
    if (options.unix_sockets) {
      ep.unix_path = MakeUnixSocketPath(dir, "member", p);
    } else {
      StatusOr<int> port = PickFreeTcpPort();
      CHECK(port.ok()) << port.status().ToString();
      ep.port = *port;
    }
    endpoints.push_back(ep);
  }
  std::vector<int> node_owner;
  for (int n = 0; n < num_nodes; ++n) {
    node_owner.push_back(n + 1);
  }

  std::vector<std::unique_ptr<ClusterNode>> members;
  for (int p = 0; p < num_processes; ++p) {
    ClusterNodeConfig config;
    config.trainer = workloads::SmallTrainerOptions(
        options.workers, options.servers, options.shards, options.staleness,
        options.policy);
    config.trainer.server_node_base = base;
    config.trainer.ps_compression = options.compression;
    config.trainer.compression_min_floats = 1;
    config.trainer.fault_plan = options.faults;
    config.hidden_layers = options.hidden_layers;
    config.iterations = options.iterations;
    config.process = p;
    config.out_dir = dir;
    config.transport.self = p;
    config.transport.processes = endpoints;
    config.transport.node_owner = node_owner;
    members.push_back(std::make_unique<ClusterNode>(std::move(config)));
  }

  std::vector<Status> results(members.size());
  std::vector<std::thread> threads;
  for (size_t p = 0; p < members.size(); ++p) {
    threads.emplace_back([&, p] { results[p] = members[p]->Run(); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (size_t p = 0; p < results.size(); ++p) {
    CHECK(results[p].ok()) << "cluster member " << p << ": "
                           << results[p].ToString();
  }

  SocketClusterRun run;
  run.trajectory.mean_losses =
      MeanLossesFromRun(dir, options.workers, options.iterations);
  run.trajectory.final_params =
      FinalParamsFromRun(dir, /*worker=*/0, options.hidden_layers);
  for (const auto& member : members) {
    Accumulate(member->faults(), &run.faults);
  }
  return run;
}

}  // namespace testing
}  // namespace poseidon
