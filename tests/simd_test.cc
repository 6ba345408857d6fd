// Cross-ISA property suite for the SIMD kernel layer (src/simd): every
// backend the host can run must produce bitwise-identical results to the
// scalar reference — on every length (vector blocks plus 0..15-element
// tails), on unaligned inputs, and through a full training run. This is the
// determinism contract of docs/PERFORMANCE.md, enforced rather than assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/simd/vec.h"
#include "src/tensor/onebit.h"
#include "tests/testing/harness.h"

namespace poseidon {
namespace {

// Fuzzed fill: well-scaled magnitudes with sign flips, a sprinkling of
// exact zeros (both signs), and denormals. NaN-free by construction — the
// kernels classify NaN deterministically, but quantizing a NaN gradient is
// already a bug upstream of this layer.
std::vector<float> FuzzFloats(std::mt19937* gen, size_t n) {
  std::uniform_real_distribution<float> value(-2.0f, 2.0f);
  std::uniform_int_distribution<int> kind(0, 19);
  std::vector<float> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (kind(*gen)) {
      case 0:
        out[i] = 0.0f;
        break;
      case 1:
        out[i] = -0.0f;
        break;
      case 2:
        out[i] = std::ldexp(value(*gen), -140);  // denormal territory
        break;
      default:
        out[i] = value(*gen);
    }
  }
  return out;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Non-scalar levels this host can actually execute.
std::vector<simd::Level> VectorLevels() {
  std::vector<simd::Level> levels;
  for (simd::Level level : simd::SupportedLevels()) {
    if (level != simd::Level::kScalar) {
      levels.push_back(level);
    }
  }
  return levels;
}

// The fuzzed length set: everything from empty through two full blocks plus
// every tail remainder, then a few larger sizes with each tail length.
std::vector<int64_t> FuzzLengths() {
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 33; ++n) {
    lengths.push_back(n);
  }
  for (int64_t tail = 0; tail <= 15; ++tail) {
    lengths.push_back(256 + tail);
  }
  return lengths;
}

TEST(SimdDispatchTest, ScalarIsAlwaysSupported) {
  EXPECT_TRUE(simd::Supported(simd::Level::kScalar));
  EXPECT_NE(simd::KernelsFor(simd::Level::kScalar), nullptr);
}

TEST(SimdDispatchTest, LevelFromStringRoundTrips) {
  EXPECT_TRUE(simd::SetLevelFromString("scalar"));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_TRUE(simd::SetLevelFromString("auto"));
  EXPECT_EQ(simd::ActiveLevel(), simd::BestLevel());
  EXPECT_FALSE(simd::SetLevelFromString("avx512"));
  EXPECT_FALSE(simd::SetLevelFromString(""));
  // A rejected string must not have clobbered the active level.
  EXPECT_EQ(simd::ActiveLevel(), simd::BestLevel());
}

TEST(SimdDispatchTest, ScopedLevelRestores) {
  const simd::Level before = simd::ActiveLevel();
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(SimdKernelTest, ElementwiseKernelsMatchScalarBitwise) {
  std::mt19937 gen(20250808);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    for (int64_t n : FuzzLengths()) {
      // Offsets 0..7 shift the working pointers off any 32-byte boundary;
      // the kernels use unaligned loads so results must not change.
      for (int64_t offset : {0, 1, 3, 7}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " n=" +
                     std::to_string(n) + " offset=" + std::to_string(offset));
        const size_t total = static_cast<size_t>(n + offset);
        const std::vector<float> x = FuzzFloats(&gen, total);
        const std::vector<float> y0 = FuzzFloats(&gen, total);
        const std::vector<float> v0 = FuzzFloats(&gen, total);

        std::vector<float> a = y0, b = y0;
        scalar->reduce_add(a.data() + offset, x.data() + offset, n);
        vec->reduce_add(b.data() + offset, x.data() + offset, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "reduce_add";

        a = y0, b = y0;
        scalar->scale(a.data() + offset, 0.3125f, n);
        vec->scale(b.data() + offset, 0.3125f, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "scale";

        a = y0, b = y0;
        scalar->axpy(a.data() + offset, -1.7f, x.data() + offset, n);
        vec->axpy(b.data() + offset, -1.7f, x.data() + offset, n);
        EXPECT_TRUE(BitwiseEqual(a, b)) << "axpy";

        std::vector<float> va = v0, vb = v0;
        a = y0, b = y0;
        scalar->sgd_step(va.data() + offset, a.data() + offset, x.data() + offset,
                         0.05f, 0.9f, 0.0001f, n);
        vec->sgd_step(vb.data() + offset, b.data() + offset, x.data() + offset,
                      0.05f, 0.9f, 0.0001f, n);
        EXPECT_TRUE(BitwiseEqual(va, vb)) << "sgd_step velocity";
        EXPECT_TRUE(BitwiseEqual(a, b)) << "sgd_step value";
      }
    }
  }
}

TEST(SimdKernelTest, OneBitKernelsMatchScalarBitwise) {
  std::mt19937 gen(7);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    // Column counts sweep every 8-wide tail (1..16 plus wider), rows keep
    // the bit cursor landing at arbitrary non-word-aligned offsets.
    for (int64_t cols = 1; cols <= 40; cols += (cols < 18 ? 1 : 5)) {
      for (int64_t rows : {1, 3, 5}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " " +
                     std::to_string(rows) + "x" + std::to_string(cols));
        const size_t elems = static_cast<size_t>(rows * cols);
        const std::vector<float> grad = FuzzFloats(&gen, elems);
        const std::vector<float> residual = FuzzFloats(&gen, elems);
        const size_t words = (elems + 31) / 32;

        std::vector<uint32_t> bits_a(words, 0u), bits_b(words, 0u);
        std::vector<double> pos_a(static_cast<size_t>(cols), 0.0), neg_a = pos_a;
        std::vector<double> pos_b = pos_a, neg_b = pos_a;
        std::vector<int32_t> pc_a(static_cast<size_t>(cols), 0), nc_a = pc_a;
        std::vector<int32_t> pc_b = pc_a, nc_b = pc_a;
        scalar->onebit_encode_stats(grad.data(), residual.data(), rows, cols,
                                    bits_a.data(), pos_a.data(), neg_a.data(),
                                    pc_a.data(), nc_a.data());
        vec->onebit_encode_stats(grad.data(), residual.data(), rows, cols,
                                 bits_b.data(), pos_b.data(), neg_b.data(),
                                 pc_b.data(), nc_b.data());
        EXPECT_EQ(bits_a, bits_b);
        EXPECT_EQ(pc_a, pc_b);
        EXPECT_EQ(nc_a, nc_b);
        // Double sums must match to the bit, not approximately.
        ASSERT_EQ(pos_a.size(), pos_b.size());
        EXPECT_EQ(std::memcmp(pos_a.data(), pos_b.data(),
                              pos_a.size() * sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(neg_a.data(), neg_b.data(),
                              neg_a.size() * sizeof(double)), 0);

        // Levels derived the same way the quantizer derives them.
        std::vector<float> pos_level(static_cast<size_t>(cols), 0.0f);
        std::vector<float> neg_level(static_cast<size_t>(cols), 0.0f);
        for (int64_t c = 0; c < cols; ++c) {
          const size_t ci = static_cast<size_t>(c);
          if (pc_a[ci] > 0) pos_level[ci] = static_cast<float>(pos_a[ci] / pc_a[ci]);
          if (nc_a[ci] > 0) neg_level[ci] = static_cast<float>(neg_a[ci] / nc_a[ci]);
        }

        std::vector<float> res_a = residual, res_b = residual;
        scalar->onebit_residual_update(grad.data(), rows, cols, bits_a.data(),
                                       pos_level.data(), neg_level.data(),
                                       res_a.data());
        vec->onebit_residual_update(grad.data(), rows, cols, bits_a.data(),
                                    pos_level.data(), neg_level.data(),
                                    res_b.data());
        EXPECT_TRUE(BitwiseEqual(res_a, res_b)) << "residual update";

        std::vector<float> out_a(elems), out_b(elems);
        scalar->onebit_decode(bits_a.data(), pos_level.data(), neg_level.data(),
                              rows, cols, out_a.data());
        vec->onebit_decode(bits_a.data(), pos_level.data(), neg_level.data(),
                           rows, cols, out_b.data());
        EXPECT_TRUE(BitwiseEqual(out_a, out_b)) << "decode";
      }
    }
  }
}

TEST(SimdKernelTest, QuantKernelsMatchScalarBitwise) {
  std::mt19937 gen(20260808);
  const simd::Kernels* scalar = simd::KernelsFor(simd::Level::kScalar);
  for (simd::Level level : VectorLevels()) {
    const simd::Kernels* vec = simd::KernelsFor(level);
    ASSERT_NE(vec, nullptr);
    for (int64_t n : FuzzLengths()) {
      SCOPED_TRACE(std::string(simd::LevelName(level)) + " n=" + std::to_string(n));
      const std::vector<float> x = FuzzFloats(&gen, static_cast<size_t>(n));
      const uint32_t seed = gen();
      const int64_t base = static_cast<int64_t>(gen() % 4096);

      std::vector<uint16_t> ha(static_cast<size_t>(n), 0), hb = ha;
      scalar->fp16_encode_sr(x.data(), n, seed, base, ha.data());
      vec->fp16_encode_sr(x.data(), n, seed, base, hb.data());
      EXPECT_EQ(ha, hb) << "fp16_encode_sr";

      std::fill(ha.begin(), ha.end(), 0);
      std::fill(hb.begin(), hb.end(), 0);
      scalar->fp16_encode_rn(x.data(), n, ha.data());
      vec->fp16_encode_rn(x.data(), n, hb.data());
      EXPECT_EQ(ha, hb) << "fp16_encode_rn";

      // Decode every 16-bit pattern the encoder produced plus raw junk
      // halves (a hostile frame can carry any bits, inf/NaN included).
      std::vector<uint16_t> halves(static_cast<size_t>(n));
      for (auto& h : halves) {
        h = static_cast<uint16_t>(gen());
      }
      std::vector<float> fa(static_cast<size_t>(n), 0.0f), fb = fa;
      scalar->fp16_decode(halves.data(), n, fa.data());
      vec->fp16_decode(halves.data(), n, fb.data());
      EXPECT_TRUE(BitwiseEqual(fa, fb)) << "fp16_decode";

      const float max_abs_a = scalar->max_abs(x.data(), n);
      const float max_abs_b = vec->max_abs(x.data(), n);
      EXPECT_EQ(std::memcmp(&max_abs_a, &max_abs_b, sizeof(float)), 0) << "max_abs";

      const float inv_scale = max_abs_a > 0.0f ? 127.0f / max_abs_a : 0.0f;
      std::vector<int8_t> qa(static_cast<size_t>(n), 0), qb = qa;
      scalar->int8_encode_sr(x.data(), n, inv_scale, seed, base, qa.data());
      vec->int8_encode_sr(x.data(), n, inv_scale, seed, base, qb.data());
      EXPECT_EQ(qa, qb) << "int8_encode_sr";

      const float scale = max_abs_a / 127.0f;
      std::fill(fa.begin(), fa.end(), 0.0f);
      std::fill(fb.begin(), fb.end(), 0.0f);
      scalar->int8_decode(qa.data(), n, scale, fa.data());
      vec->int8_decode(qa.data(), n, scale, fb.data());
      EXPECT_TRUE(BitwiseEqual(fa, fb)) << "int8_decode";

      EXPECT_EQ(scalar->count_abs_greater(x.data(), n, 0.5f),
                vec->count_abs_greater(x.data(), n, 0.5f))
          << "count_abs_greater";
      EXPECT_EQ(scalar->count_abs_greater(x.data(), n, 0.0f),
                vec->count_abs_greater(x.data(), n, 0.0f))
          << "count_abs_greater at zero threshold";
    }
  }
}

// ------------------------------------------------------------------ GEMM ----
// The historical src/tensor/ops.cc loops, verbatim, as the oracle every
// backend must match bit for bit. This file is compiled with
// -ffp-contract=off (CMakeLists.txt) so the oracle itself never fuses.

void OracleGemmAccumulate(const float* a, const float* b, float* c, int64_t m,
                          int64_t k, int64_t n) {
  constexpr int64_t kBlock = 64;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(i0 + kBlock, m);
    for (int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const int64_t p1 = std::min(p0 + kBlock, k);
      for (int64_t i = i0; i < i1; ++i) {
        float* c_row = c + i * n;
        for (int64_t p = p0; p < p1; ++p) {
          const float a_ip = a[i * k + p];
          if (a_ip == 0.0f) {
            continue;
          }
          const float* b_row = b + p * n;
          for (int64_t j = 0; j < n; ++j) {
            c_row[j] += a_ip * b_row[j];
          }
        }
      }
    }
  }
}

void OracleGemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  std::fill(c, c + m * n, 0.0f);
  OracleGemmAccumulate(a, b, c, m, k, n);
}

void OracleGemmTransA(const float* ad, const float* bd, float* od, int64_t k,
                      int64_t m, int64_t n) {
  std::fill(od, od + m * n, 0.0f);
  for (int64_t p = 0; p < k; ++p) {
    const float* a_row = ad + p * m;
    const float* b_row = bd + p * n;
    for (int64_t i = 0; i < m; ++i) {
      const float a_pi = a_row[i];
      if (a_pi == 0.0f) {
        continue;
      }
      float* o_row = od + i * n;
      for (int64_t j = 0; j < n; ++j) {
        o_row[j] += a_pi * b_row[j];
      }
    }
  }
}

void OracleGemmTransB(const float* ad, const float* bd, float* od, int64_t m,
                      int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = ad + i * k;
    float* o_row = od + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = bd + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a_row[p] * b_row[p];
      }
      o_row[j] = acc;
    }
  }
}

// The NaN the hardware itself produces (inf * 0). Feeding only this pattern
// means every NaN in a product or sum has the same bits, so the comparison
// pins where NaNs appear without depending on which operand's payload an
// instruction propagates when both are NaN.
float DefaultNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf * 0.0f;
}

// FuzzFloats plus, about 1 in 100 each, +inf, -inf and NaN.
std::vector<float> FuzzSpecialFloats(std::mt19937* gen, size_t n) {
  std::vector<float> out = FuzzFloats(gen, n);
  std::uniform_int_distribution<int> kind(0, 99);
  const float inf = std::numeric_limits<float>::infinity();
  for (float& v : out) {
    switch (kind(*gen)) {
      case 0:
        v = inf;
        break;
      case 1:
        v = -inf;
        break;
      case 2:
        v = DefaultNaN();
        break;
      default:
        break;
    }
  }
  return out;
}

// Runs the three products at one shape under `level` and the oracle, on
// operands starting `offset` floats into their buffers. The output buffer
// starts as NaN garbage, so a kernel that skips an element (or writes past
// the matrix) shows up in the memcmp too.
void ExpectGemmsMatchOracle(simd::Level level, const std::vector<float>& a_buf,
                            const std::vector<float>& b_buf, int64_t m, int64_t k,
                            int64_t n, int64_t offset) {
  const float* a = a_buf.data() + offset;
  const float* b = b_buf.data() + offset;
  const std::vector<float> garbage(static_cast<size_t>(m * n + offset + 8),
                                   DefaultNaN());
  std::vector<float> want = garbage, got = garbage;

  OracleGemm(a, b, want.data() + offset, m, k, n);
  {
    simd::ScopedLevel pinned(level);
    simd::Gemm(a, b, got.data() + offset, m, k, n);
  }
  EXPECT_TRUE(BitwiseEqual(want, got)) << "gemm";

  want = garbage, got = garbage;
  OracleGemmTransA(a, b, want.data() + offset, k, m, n);
  {
    simd::ScopedLevel pinned(level);
    simd::GemmTransA(a, b, got.data() + offset, k, m, n);
  }
  EXPECT_TRUE(BitwiseEqual(want, got)) << "gemm_trans_a";

  want = garbage, got = garbage;
  OracleGemmTransB(a, b, want.data() + offset, m, k, n);
  simd::KernelsFor(level)->gemm_nt(a, b, got.data() + offset, m, k, n);
  EXPECT_TRUE(BitwiseEqual(want, got)) << "gemm_nt";
}

TEST(SimdKernelTest, GemmKernelsMatchScalarBitwise) {
  std::mt19937 gen(20261017);
  const std::vector<int64_t> dims = {1, 7, 8, 9, 17, 64};
  for (simd::Level level : simd::SupportedLevels()) {
    for (int64_t m : dims) {
      for (int64_t k : dims) {
        for (int64_t n : dims) {
          for (int64_t offset : {0, 3}) {
            SCOPED_TRACE(std::string(simd::LevelName(level)) + " m=" +
                         std::to_string(m) + " k=" + std::to_string(k) + " n=" +
                         std::to_string(n) + " offset=" + std::to_string(offset));
            // Operand buffers cover the largest of the three products' A
            // and B at this shape.
            const size_t size = static_cast<size_t>(std::max(m, n) * k + offset);
            ExpectGemmsMatchOracle(level, FuzzFloats(&gen, size),
                                   FuzzFloats(&gen, size), m, k, n, offset);
            ExpectGemmsMatchOracle(level, FuzzSpecialFloats(&gen, size),
                                   FuzzSpecialFloats(&gen, size), m, k, n, offset);
          }
        }
      }
    }
    // The wide-int8 FC forward shape: 8x1024 activations against a
    // 1024x1024 weight, one float off alignment.
    SCOPED_TRACE(std::string(simd::LevelName(level)) + " 8x1024x1024");
    const int64_t m = 8, k = 1024, n = 1024;
    ExpectGemmsMatchOracle(level, FuzzFloats(&gen, n * k + 1),
                           FuzzFloats(&gen, n * k + 1), m, k, n, /*offset=*/1);
  }
}

// Gemm and GemmTransA skip zero entries of A, so 0 * inf never enters a sum:
// an all-zero A against an all-inf B gives +0.0, not NaN, on every backend.
TEST(SimdKernelTest, GemmSkipsZeroEntriesOfA) {
  const int64_t m = 9, k = 17, n = 9;
  std::vector<float> a(static_cast<size_t>(m * k), 0.0f);
  for (size_t i = 0; i < a.size(); i += 2) {
    a[i] = -0.0f;
  }
  const std::vector<float> b(static_cast<size_t>(k * n),
                             std::numeric_limits<float>::infinity());
  const std::vector<float> zeros(static_cast<size_t>(m * n), 0.0f);
  for (simd::Level level : simd::SupportedLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::ScopedLevel pinned(level);
    std::vector<float> c(static_cast<size_t>(m * n), DefaultNaN());
    simd::Gemm(a.data(), b.data(), c.data(), m, k, n);
    EXPECT_TRUE(BitwiseEqual(c, zeros)) << "gemm";
    std::fill(c.begin(), c.end(), DefaultNaN());
    simd::GemmTransA(a.data(), b.data(), c.data(), k, m, n);
    EXPECT_TRUE(BitwiseEqual(c, zeros)) << "gemm_trans_a";
  }
}

// The end-to-end stake in the ground: a full small-cluster training run —
// GEMMs, quantized gradients or sufficient factors, server applies, SGD —
// lands on exactly the same losses and final weights with vectorization on
// and off. kDense covers the PS path, kSfb the SF reconstruction, kOneBit
// the 1-bit codec.
class SimdTrajectoryTest : public ::testing::TestWithParam<PlanPolicy> {};

TEST_P(SimdTrajectoryTest, TrainerTrajectoryIsDispatchInvariant) {
  TrainerOptions options = testing::SmallTrainerOptions();
  options.fc_policy = GetParam();
  testing::Trajectory scalar_run, auto_run;
  {
    simd::ScopedLevel pinned(simd::Level::kScalar);
    scalar_run = testing::CaptureTrajectory(options, /*iterations=*/6);
  }
  {
    simd::ScopedLevel pinned(simd::BestLevel());
    auto_run = testing::CaptureTrajectory(options, /*iterations=*/6);
  }
  EXPECT_EQ(scalar_run.mean_losses.size(), 6u);
  EXPECT_TRUE(scalar_run == auto_run)
      << "training trajectory differs between scalar and "
      << simd::LevelName(simd::BestLevel()) << " dispatch";
}

INSTANTIATE_TEST_SUITE_P(Policies, SimdTrajectoryTest,
                         ::testing::Values(PlanPolicy::kDense, PlanPolicy::kSfb,
                                           PlanPolicy::kOneBit),
                         [](const ::testing::TestParamInfo<PlanPolicy>& info) {
                           return std::string(PlanPolicyName(info.param));
                         });

}  // namespace
}  // namespace poseidon
