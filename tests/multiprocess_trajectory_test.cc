// The tentpole acceptance test: a real fork/exec Poseidon cluster — one
// coordinator process plus one OS process per bus node, spawned through
// tools/poseidon_launch and talking only over sockets — must follow a
// bitwise-identical parameter trajectory to the single-process in-memory
// trainer. Mean losses are reassembled from the workers' hexfloat logs in
// the trainer's summation order; final parameters come from worker 0's
// checkpoint. A cluster that hangs, crashes, or drifts by one ULP fails.
//
// CMake exports POSEIDON_LAUNCH_BIN (the poseidon_launch target path) into
// this test's environment; runs land in fresh TEST_TMPDIR directories and
// every child's stderr tail is attached to the assertion message on failure.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/testing/harness.h"
#include "tests/testing/subprocess.h"

namespace poseidon {
namespace {

using testing::CaptureTrajectory;
using testing::FinalParamsFromRun;
using testing::LaunchRun;
using testing::MakeTempDir;
using testing::MeanLossesFromRun;
using testing::RunPoseidonLaunch;
using testing::SmallTrainerOptions;
using testing::Trajectory;

constexpr int kIterations = 6;

// Launches a cluster with the given shape flags and compares its artifacts
// against the in-process oracle, bitwise. Returns the run log so callers can
// make additional assertions about what the cluster reported.
std::string LaunchAndExpectOracle(std::vector<std::string> args, int workers,
                                  int servers, int shards, int staleness,
                                  PlanPolicy policy,
                                  PlanCodecPolicy compression = PlanCodecPolicy::kNone) {
  const std::string dir = MakeTempDir("mp_trajectory");
  args.push_back("--workers=" + std::to_string(workers));
  args.push_back("--servers=" + std::to_string(servers));
  args.push_back("--shards=" + std::to_string(shards));
  args.push_back("--staleness=" + std::to_string(staleness));
  args.push_back("--iters=" + std::to_string(kIterations));
  args.push_back("--out=" + dir);
  const LaunchRun run = RunPoseidonLaunch(dir, args);
  EXPECT_EQ(run.exit_code, 0) << "cluster failed:\n" << run.log;
  if (run.exit_code != 0) {
    return run.log;
  }

  TrainerOptions options = SmallTrainerOptions(workers, servers, shards, staleness, policy);
  options.ps_compression = compression;
  options.compression_min_floats = 1;  // as poseidon_launch configures it
  const Trajectory oracle = CaptureTrajectory(options, kIterations);
  const std::vector<double> mean = MeanLossesFromRun(dir, workers, kIterations);
  EXPECT_EQ(mean.size(), oracle.mean_losses.size());
  for (size_t i = 0; i < mean.size() && i < oracle.mean_losses.size(); ++i) {
    EXPECT_EQ(mean[i], oracle.mean_losses[i])
        << "mean loss diverged at iteration " << i << "\n"
        << run.log;
  }
  // Every worker replica must converge to the same parameters; compare each
  // against the oracle's worker-0 flattening.
  for (int w = 0; w < workers; ++w) {
    const std::vector<float> params = FinalParamsFromRun(dir, w);
    EXPECT_EQ(params.size(), oracle.final_params.size());
    if (params.size() != oracle.final_params.size()) {
      continue;
    }
    int mismatches = 0;
    for (size_t i = 0; i < params.size(); ++i) {
      if (params[i] != oracle.final_params[i]) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0)
        << "worker " << w << " drifted in " << mismatches << " of "
        << params.size() << " floats\n"
        << run.log;
  }
  return run.log;
}

TEST(MultiprocessTrajectoryTest, TcpBspClusterMatchesInProcessBitwise) {
  LaunchAndExpectOracle({"--transport=tcp", "--policy=dense"},
                        /*workers=*/2, /*servers=*/2, /*shards=*/2,
                        /*staleness=*/0, PlanPolicy::kDense);
}

TEST(MultiprocessTrajectoryTest, ShardedSspS0ClusterMatchesInProcess) {
  // SSP with staleness 0 must remain bitwise BSP even when the parameter
  // space is striped over four shards per server and crosses real sockets.
  LaunchAndExpectOracle({"--transport=tcp", "--policy=dense"},
                        /*workers=*/2, /*servers=*/2, /*shards=*/4,
                        /*staleness=*/0, PlanPolicy::kDense);
}

TEST(MultiprocessTrajectoryTest, UnixColocatedClusterMatchesInProcess) {
  LaunchAndExpectOracle({"--transport=unix", "--policy=dense", "--colocate"},
                        /*workers=*/2, /*servers=*/2, /*shards=*/2,
                        /*staleness=*/0, PlanPolicy::kDense);
}

TEST(MultiprocessTrajectoryTest, Int8TcpClusterMatchesInProcessBitwise) {
  // Every process executes the plan's int8 codecs (seeded stochastic
  // rounding, error feedback): the compressed trajectory crosses real
  // sockets bit for bit.
  LaunchAndExpectOracle({"--transport=tcp", "--policy=dense", "--ps-compression=int8"},
                        /*workers=*/2, /*servers=*/2, /*shards=*/2,
                        /*staleness=*/0, PlanPolicy::kDense, PlanCodecPolicy::kInt8);
  TrainerOptions raw = SmallTrainerOptions(2, 2, 2, 0, PlanPolicy::kDense);
  TrainerOptions int8 = raw;
  int8.ps_compression = PlanCodecPolicy::kInt8;
  int8.compression_min_floats = 1;
  EXPECT_FALSE(CaptureTrajectory(int8, kIterations) == CaptureTrajectory(raw, kIterations))
      << "the int8 oracle trains raw fp32, so this leg would prove nothing";
}

TEST(MultiprocessTrajectoryTest, OneBitTcpClusterMatchesInProcessBitwise) {
  // Every FC layer pushes 1-bit frames (error feedback per worker) to its
  // owner shard, which serves the whole layer as one pair: the quantized
  // trajectory crosses real sockets bit for bit.
  LaunchAndExpectOracle({"--transport=tcp", "--policy=onebit"},
                        /*workers=*/2, /*servers=*/2, /*shards=*/2,
                        /*staleness=*/0, PlanPolicy::kOneBit);
  TrainerOptions onebit = SmallTrainerOptions(2, 2, 2, 0, PlanPolicy::kOneBit);
  onebit.compression_min_floats = 1;
  TrainerOptions dense = onebit;
  dense.fc_policy = PlanPolicy::kDense;
  EXPECT_FALSE(CaptureTrajectory(onebit, kIterations) == CaptureTrajectory(dense, kIterations))
      << "the 1-bit oracle trains dense, so this leg would prove nothing";
}

TEST(MultiprocessTrajectoryTest, LossySocketsPreserveTheTrajectory) {
  // Fault-fabric weather on every process's egress: the cluster must train
  // to the exact clean trajectory, and the run must prove weather actually
  // happened (each node logs its fault counters at teardown; the tails of
  // those logs ride in run.log).
  const std::string log = LaunchAndExpectOracle(
      {"--transport=tcp", "--policy=dense", "--shim-seed=11",
       "--shim-drop=0.05", "--shim-dup=0.05", "--shim-delay=0.1"},
      /*workers=*/2, /*servers=*/2, /*shards=*/2,
      /*staleness=*/0, PlanPolicy::kDense);
  EXPECT_NE(log.find("fault fabric: faults{"), std::string::npos)
      << "no process reported fault counters — the lossy run proved nothing:\n"
      << log;
}

TEST(MultiprocessTrajectoryTest, LauncherFailsLoudlyOnBadShape) {
  // A shape the parser rejects must exit nonzero quickly — the CI smoke
  // job's guarantee that a misconfigured cluster can never hang.
  const std::string dir = MakeTempDir("mp_badshape");
  const LaunchRun run =
      RunPoseidonLaunch(dir, {"--workers=0", "--out=" + dir},
                        /*timeout_ms=*/30000);
  EXPECT_NE(run.exit_code, 0);
}

}  // namespace
}  // namespace poseidon
