// Minimal command-line handling shared by the bench harnesses, so CI can run
// a fast smoke subset and users can point a sweep at their own cluster shape
// without recompiling:
//   --nodes=1,2,4   worker/node counts to sweep (default: the paper's)
//   --gbps=10,40    per-node NIC bandwidths to sweep
//   --shards=1,4    KV shard endpoints per server to sweep (PS-path benches)
//   --fast          smoke mode: truncate default sweeps (and iteration
//                   counts, where a bench honours it) to a quick subset
//   --full          paper-sized configuration (fig11's 32x32 CIFAR run)
//   --transport=inproc|tcp|unix  bus backend: socket choices add a live
//                   loopback bandwidth measurement (supported benches)
//   --fault-loss=0.001,0.01     per-message loss rates to sweep (fault-model
//                   benches; the modeled link layer retransmits)
//   --fault-detect-ms=50,250    failure-detection timeouts to sweep, ms
//   --fault-restart-ms=100,1000 worker restart/rehydrate costs to sweep, ms
//   --simd=auto|avx2|neon|scalar  SIMD dispatch level for the hot kernels
//                   (src/simd); same values as POSEIDON_SIMD, flag wins
// Telemetry flags (every bench; see docs/OBSERVABILITY.md):
//   --json-out=PATH      write the bench's BenchRecord result JSON to PATH
//   --trace-out=PATH     enable the span tracer and export Chrome/Perfetto
//                        trace JSON to PATH at exit
//   --metrics-json=PATH  export the process metrics registry to PATH at exit
// Explicit --nodes/--gbps/--shards always win over --fast truncation.
#ifndef POSEIDON_SRC_COMMON_CLI_H_
#define POSEIDON_SRC_COMMON_CLI_H_

#include <string>
#include <vector>

namespace poseidon {

class BenchRecord;

struct BenchArgs {
  std::vector<int> nodes;
  std::vector<double> gbps;
  std::vector<int> shards;
  bool fast = false;
  bool full = false;
  // --transport=inproc|tcp|unix: which bus backend the bench exercises.
  // "inproc" (default) keeps the modeled/in-memory path; "tcp"/"unix" add a
  // live loopback socket-bandwidth measurement next to the modeled sweep
  // (see src/transport/socket_bench.h).
  std::string transport = "inproc";
  // Fault-model sweeps (bench_ext_faults; see docs/FAULT_TOLERANCE.md).
  std::vector<double> fault_loss;
  std::vector<double> fault_detect_ms;
  std::vector<double> fault_restart_ms;
  // --simd=auto|avx2|neon|scalar: pins the SIMD dispatch level before the
  // bench runs (ParseBenchArgs applies it immediately). Empty = leave the
  // POSEIDON_SIMD / CPUID-derived default in place.
  std::string simd;
  // --plan=paper|auto|fixed:<path.json>: how the planner-aware benches pick
  // their communication configuration. "paper" (default) keeps the bench's
  // hand-picked paper-mode settings; "auto" runs the CommPlanner's joint
  // search per sweep point (memoized in the plan cache); "fixed:<path>"
  // adopts a CommPlan JSON dump verbatim (CommPlan::LoadFromFile).
  std::string plan = "paper";
  // Telemetry sinks (empty = off); see InitBenchTelemetry/FinishBenchTelemetry.
  std::string json_out;
  std::string trace_out;
  std::string metrics_json;

  // The node counts to sweep: the explicit --nodes list, else `defaults`
  // (truncated to its first two entries under --fast).
  std::vector<int> NodesOr(std::vector<int> defaults) const;
  // Same for bandwidths; --fast keeps only the first default.
  std::vector<double> GbpsOr(std::vector<double> defaults) const;
  // Same for per-server shard counts; --fast keeps the first two defaults.
  std::vector<int> ShardsOr(std::vector<int> defaults) const;
  // Single-configuration variant of --shards (see FirstNodeOr).
  int FirstShardOr(int default_value) const;
  // Iteration-count knob for the threaded-runtime benches.
  int ItersOr(int normal, int fast_iters) const { return fast ? fast_iters : normal; }
  // --transport asked for a socket backend (tcp or unix).
  bool SocketTransportRequested() const { return transport != "inproc"; }
  bool UnixTransport() const { return transport == "unix"; }
  // --plan mode helpers (cli stays planner-independent; benches do the I/O).
  bool AutoPlan() const { return plan == "auto"; }
  bool FixedPlan() const { return plan.rfind("fixed:", 0) == 0; }
  // The <path.json> of --plan=fixed:<path.json> (empty otherwise).
  std::string FixedPlanPath() const {
    return FixedPlan() ? plan.substr(6) : std::string();
  }
  // For single-configuration benches that cannot sweep: the first entry,
  // with a stderr warning when a multi-value list was given (so a truncated
  // sweep never looks like it completed).
  int FirstNodeOr(int default_value) const;
  double FirstGbpsOr(double default_value) const;
  // Fault-model lists: the explicit flag values, else `defaults` (--fast
  // keeps the first two loss rates and the first detect/restart values).
  std::vector<double> FaultLossOr(std::vector<double> defaults) const;
  std::vector<double> FaultDetectMsOr(std::vector<double> defaults) const;
  std::vector<double> FaultRestartMsOr(std::vector<double> defaults) const;
};

// Parses argv; prints usage and exits on --help or an unknown argument.
BenchArgs ParseBenchArgs(int argc, char** argv);

// Call right after ParseBenchArgs: arms the span tracer when --trace-out was
// given (tracing stays compiled-in but off otherwise).
void InitBenchTelemetry(const BenchArgs& args);

// Call at the end of main: exports the trace (--trace-out), the process
// metrics registry (--metrics-json), and the bench's result record
// (--json-out, when the bench produced one). Failures are logged, not fatal
// — a bench run's numbers outrank its telemetry files.
void FinishBenchTelemetry(const BenchArgs& args, const BenchRecord* record = nullptr);

}  // namespace poseidon

#endif  // POSEIDON_SRC_COMMON_CLI_H_
