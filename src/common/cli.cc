#include "src/common/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/simd/vec.h"
#include "src/stats/bench_record.h"
#include "src/stats/metrics.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace {

// Splits a comma-separated numeric list; exits with a message on junk.
template <typename T, typename ParseFn>
std::vector<T> ParseList(const char* flag, const std::string& value, ParseFn parse) {
  std::vector<T> out;
  size_t start = 0;
  while (start <= value.size()) {
    const size_t comma = value.find(',', start);
    const std::string item =
        value.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
    char* end = nullptr;
    const T parsed = parse(item.c_str(), &end);
    if (item.empty() || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "invalid %s list entry: '%s'\n", flag, item.c_str());
      std::exit(2);
    }
    out.push_back(parsed);
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

void Usage(const char* argv0) {
  std::printf(
      "usage: %s [--nodes=N1,N2,...] [--gbps=B1,B2,...] [--shards=S1,S2,...]\n"
      "       [--fast] [--full]\n"
      "  --nodes  worker/node counts to sweep (default: the bench's)\n"
      "  --gbps   NIC bandwidths to sweep, in Gb/s\n"
      "  --shards KV shard endpoints per server (PS-path benches)\n"
      "  --fast   smoke subset: first two node counts, first bandwidth,\n"
      "           reduced iterations where applicable\n"
      "  --full   paper-sized configuration (where the bench has one)\n"
      "  --transport=inproc|tcp|unix  bus backend; tcp/unix add a live\n"
      "           loopback socket-bandwidth measurement (supported benches)\n"
      "  --fault-loss=P1,P2,...     per-message loss rates to sweep\n"
      "  --fault-detect-ms=D1,...   failure-detection timeouts to sweep (ms)\n"
      "  --fault-restart-ms=R1,...  worker restart costs to sweep (ms)\n"
      "  --simd=auto|avx2|neon|scalar  SIMD dispatch level for the hot\n"
      "           kernels (default: POSEIDON_SIMD env, else CPUID)\n"
      "  --plan=paper|auto|fixed:<path.json>  communication plan source:\n"
      "           hand-picked paper defaults, the CommPlanner's joint search,\n"
      "           or a CommPlan JSON dump (planner-aware benches)\n"
      "  --json-out=PATH      write the bench result record as JSON\n"
      "  --trace-out=PATH     enable span tracing; export Chrome trace JSON\n"
      "  --metrics-json=PATH  export the process metrics registry as JSON\n",
      argv0);
}

}  // namespace

std::vector<int> BenchArgs::NodesOr(std::vector<int> defaults) const {
  if (!nodes.empty()) {
    return nodes;
  }
  if (fast && defaults.size() > 2) {
    defaults.resize(2);
  }
  return defaults;
}

std::vector<double> BenchArgs::GbpsOr(std::vector<double> defaults) const {
  if (!gbps.empty()) {
    return gbps;
  }
  if (fast && defaults.size() > 1) {
    defaults.resize(1);
  }
  return defaults;
}

std::vector<int> BenchArgs::ShardsOr(std::vector<int> defaults) const {
  if (!shards.empty()) {
    return shards;
  }
  if (fast && defaults.size() > 2) {
    defaults.resize(2);
  }
  return defaults;
}

int BenchArgs::FirstShardOr(int default_value) const {
  if (shards.empty()) {
    return default_value;
  }
  if (shards.size() > 1) {
    std::fprintf(stderr, "note: this bench runs one shard count; using --shards=%d\n",
                 shards.front());
  }
  return shards.front();
}

int BenchArgs::FirstNodeOr(int default_value) const {
  if (nodes.empty()) {
    return default_value;
  }
  if (nodes.size() > 1) {
    std::fprintf(stderr, "note: this bench runs one node count; using --nodes=%d\n",
                 nodes.front());
  }
  return nodes.front();
}

double BenchArgs::FirstGbpsOr(double default_value) const {
  if (gbps.empty()) {
    return default_value;
  }
  if (gbps.size() > 1) {
    std::fprintf(stderr, "note: this bench runs one bandwidth; using --gbps=%g\n",
                 gbps.front());
  }
  return gbps.front();
}

std::vector<double> BenchArgs::FaultLossOr(std::vector<double> defaults) const {
  if (!fault_loss.empty()) {
    return fault_loss;
  }
  if (fast && defaults.size() > 2) {
    defaults.resize(2);
  }
  return defaults;
}

std::vector<double> BenchArgs::FaultDetectMsOr(std::vector<double> defaults) const {
  if (!fault_detect_ms.empty()) {
    return fault_detect_ms;
  }
  if (fast && defaults.size() > 1) {
    defaults.resize(1);
  }
  return defaults;
}

std::vector<double> BenchArgs::FaultRestartMsOr(std::vector<double> defaults) const {
  if (!fault_restart_ms.empty()) {
    return fault_restart_ms;
  }
  if (fast && defaults.size() > 1) {
    defaults.resize(1);
  }
  return defaults;
}

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      std::string v = arg.substr(std::strlen(prefix));
      if (!v.empty() && v[0] == '=') {
        return v.substr(1);
      }
      if (v.empty() && i + 1 < argc) {
        return argv[++i];
      }
      return v;
    };
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      std::exit(0);
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--full") {
      args.full = true;
    } else if (arg.rfind("--transport", 0) == 0) {
      args.transport = value_of("--transport");
      if (args.transport != "inproc" && args.transport != "tcp" &&
          args.transport != "unix") {
        std::fprintf(stderr, "invalid --transport value: '%s' (inproc|tcp|unix)\n",
                     args.transport.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--nodes", 0) == 0) {
      args.nodes = ParseList<int>("--nodes", value_of("--nodes"), [](const char* s, char** e) {
        return static_cast<int>(std::strtol(s, e, 10));
      });
    } else if (arg.rfind("--shards", 0) == 0) {
      args.shards =
          ParseList<int>("--shards", value_of("--shards"), [](const char* s, char** e) {
            return static_cast<int>(std::strtol(s, e, 10));
          });
    } else if (arg.rfind("--gbps", 0) == 0) {
      args.gbps = ParseList<double>("--gbps", value_of("--gbps"),
                                    [](const char* s, char** e) { return std::strtod(s, e); });
    } else if (arg.rfind("--fault-loss", 0) == 0) {
      args.fault_loss =
          ParseList<double>("--fault-loss", value_of("--fault-loss"),
                            [](const char* s, char** e) { return std::strtod(s, e); });
    } else if (arg.rfind("--fault-detect-ms", 0) == 0) {
      args.fault_detect_ms =
          ParseList<double>("--fault-detect-ms", value_of("--fault-detect-ms"),
                            [](const char* s, char** e) { return std::strtod(s, e); });
    } else if (arg.rfind("--fault-restart-ms", 0) == 0) {
      args.fault_restart_ms =
          ParseList<double>("--fault-restart-ms", value_of("--fault-restart-ms"),
                            [](const char* s, char** e) { return std::strtod(s, e); });
    } else if (arg.rfind("--simd", 0) == 0) {
      args.simd = value_of("--simd");
      if (!simd::SetLevelFromString(args.simd)) {
        std::fprintf(stderr, "invalid --simd value: '%s' (auto|avx2|neon|scalar)\n",
                     args.simd.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--plan", 0) == 0) {
      args.plan = value_of("--plan");
      if (args.plan != "paper" && args.plan != "auto" &&
          (args.plan.rfind("fixed:", 0) != 0 || args.plan.size() <= 6)) {
        std::fprintf(stderr,
                     "invalid --plan value: '%s' (paper|auto|fixed:<path.json>)\n",
                     args.plan.c_str());
        std::exit(2);
      }
    } else if (arg.rfind("--json-out", 0) == 0) {
      args.json_out = value_of("--json-out");
    } else if (arg.rfind("--trace-out", 0) == 0) {
      args.trace_out = value_of("--trace-out");
    } else if (arg.rfind("--metrics-json", 0) == 0) {
      args.metrics_json = value_of("--metrics-json");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      Usage(argv[0]);
      std::exit(2);
    }
  }
  return args;
}

void InitBenchTelemetry(const BenchArgs& args) {
  if (!args.trace_out.empty()) {
    Tracer::Enable();
  }
}

void FinishBenchTelemetry(const BenchArgs& args, const BenchRecord* record) {
  if (!args.trace_out.empty()) {
    const Status written = Tracer::WriteChromeJson(args.trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", written.ToString().c_str());
    } else {
      std::fprintf(stderr, "trace: %s (%lld events, %lld dropped)\n",
                   args.trace_out.c_str(), static_cast<long long>(Tracer::recorded()),
                   static_cast<long long>(Tracer::dropped()));
    }
  }
  if (!args.metrics_json.empty()) {
    const Status written = MetricsRegistry::Default().WriteJson(args.metrics_json);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics export failed: %s\n", written.ToString().c_str());
    }
  }
  if (!args.json_out.empty() && record != nullptr) {
    const Status written = record->WriteJson(args.json_out);
    if (!written.ok()) {
      std::fprintf(stderr, "bench record export failed: %s\n", written.ToString().c_str());
    }
  }
}

}  // namespace poseidon
