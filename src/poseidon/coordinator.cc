#include "src/poseidon/coordinator.h"

#include "src/common/logging.h"

namespace poseidon {

Coordinator::Coordinator(Network& net, const ClusterInfo& cluster) : cluster_(cluster) {
  CHECK_GT(cluster_.num_workers, 0);
  CHECK_GT(cluster_.num_servers, 0);
  CHECK_GT(cluster_.shards_per_server, 0);
  CHECK_GE(cluster_.staleness, 0);
  CHECK_GT(cluster_.kv_pair_bytes, 0);
  const int64_t pair_floats = std::max<int64_t>(1, cluster_.kv_pair_bytes / 4);

  // Round-robin cursor over the flat shard-endpoint space, across *all*
  // pairs, all layers. The mapping is server-major — endpoint g lives on
  // server g % num_servers, shard (g / num_servers) % shards — so
  // consecutive pairs alternate server nodes first and shards second: a
  // layer with fewer pairs than endpoints still spreads its traffic over
  // every server NIC, and with one shard per server the cursor reduces to
  // the seed's round-robin over servers exactly.
  const int shards = cluster_.shards_per_server;
  const int num_endpoints = cluster_.num_servers * shards;
  int next_endpoint = 0;
  for (int l = 0; l < net.num_layers(); ++l) {
    Layer& layer = net.layer(l);
    LayerInfo info;
    info.name = layer.name();
    info.type = layer.type();
    info.fc_m = layer.fc_m();
    info.fc_n = layer.fc_n();
    info.total_floats = layer.num_params();

    int64_t offset = 0;
    int chunk = 0;
    while (offset < info.total_floats) {
      KvPairInfo pair;
      pair.layer = l;
      pair.chunk = chunk++;
      pair.offset = offset;
      pair.length = std::min(pair_floats, info.total_floats - offset);
      pair.server = next_endpoint % cluster_.num_servers;
      pair.shard = (next_endpoint / cluster_.num_servers) % shards;
      next_endpoint = (next_endpoint + 1) % num_endpoints;
      offset += pair.length;
      info.pairs.push_back(pair);
    }
    layers_.push_back(std::move(info));
  }
}

const LayerInfo& Coordinator::layer(int l) const {
  CHECK_GE(l, 0);
  CHECK_LT(l, num_layers());
  return layers_[static_cast<size_t>(l)];
}

StatusOr<int64_t> Coordinator::Query(const std::string& property) const {
  if (property == "n_worker") {
    return static_cast<int64_t>(cluster_.num_workers);
  }
  if (property == "n_server") {
    return static_cast<int64_t>(cluster_.num_servers);
  }
  if (property == "n_shard") {
    return static_cast<int64_t>(cluster_.shards_per_server);
  }
  if (property == "staleness") {
    return static_cast<int64_t>(cluster_.staleness);
  }
  if (property == "batchsize") {
    return static_cast<int64_t>(cluster_.batch_per_worker);
  }
  if (property == "n_layer") {
    return static_cast<int64_t>(num_layers());
  }
  if (property == "kv_pair_bytes") {
    return cluster_.kv_pair_bytes;
  }
  return NotFoundError("unknown property: " + property);
}

std::vector<KvPairInfo> Coordinator::PairsOnServer(int l, int server) const {
  std::vector<KvPairInfo> pairs;
  for (const KvPairInfo& pair : layer(l).pairs) {
    if (pair.server == server) {
      pairs.push_back(pair);
    }
  }
  return pairs;
}

std::vector<KvPairInfo> Coordinator::PairsOnShard(int l, int server, int shard) const {
  std::vector<KvPairInfo> pairs;
  for (const KvPairInfo& pair : layer(l).pairs) {
    if (pair.server == server && pair.shard == shard) {
      pairs.push_back(pair);
    }
  }
  return pairs;
}

std::vector<KvPairInfo> Coordinator::ServedPairs(int l, PlannedScheme scheme, int server,
                                                 int shard) const {
  if (scheme == PlannedScheme::kPS) {
    return PairsOnShard(l, server, shard);
  }
  if (scheme != PlannedScheme::kOneBit || server != l % cluster_.num_servers ||
      shard != (l / cluster_.num_servers) % cluster_.shards_per_server) {
    return {};
  }
  const LayerInfo& info = layer(l);
  CHECK_GT(info.fc_m, 0) << "1-bit layers must be FC";
  KvPairInfo whole;
  whole.layer = l;
  whole.length = info.total_floats;
  whole.server = server;
  whole.shard = shard;
  return {whole};
}

WireCodec PushCodec(PlannedScheme scheme, GradCompression compression) {
  if (scheme == PlannedScheme::kOneBit) {
    return WireCodec::kOneBit;
  }
  switch (compression) {
    case GradCompression::kNone:
      return WireCodec::kRawFloat;
    case GradCompression::kFp16:
      return WireCodec::kFp16;
    case GradCompression::kInt8:
      return WireCodec::kInt8;
    case GradCompression::kTopK:
      return WireCodec::kTopK;
  }
  return WireCodec::kRawFloat;
}

std::vector<int64_t> Coordinator::ServerLoadFloats() const {
  std::vector<int64_t> load(static_cast<size_t>(cluster_.num_servers), 0);
  for (const LayerInfo& info : layers_) {
    for (const KvPairInfo& pair : info.pairs) {
      load[static_cast<size_t>(pair.server)] += pair.length;
    }
  }
  return load;
}

std::vector<int64_t> Coordinator::ShardLoadFloats() const {
  const int shards = cluster_.shards_per_server;
  std::vector<int64_t> load(static_cast<size_t>(cluster_.num_servers * shards), 0);
  for (const LayerInfo& info : layers_) {
    for (const KvPairInfo& pair : info.pairs) {
      load[static_cast<size_t>(pair.server * shards + pair.shard)] += pair.length;
    }
  }
  return load;
}

}  // namespace poseidon
