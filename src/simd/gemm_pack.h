/// \file
/// Internal helper shared by the vector GemmTransB backends: repacks the
/// activation operand A[m,k] so that 8 consecutive rows sit side by side for
/// each p. Pure data movement — no arithmetic, so it cannot change a result.
#ifndef POSEIDON_SRC_SIMD_GEMM_PACK_H_
#define POSEIDON_SRC_SIMD_GEMM_PACK_H_

#include <cstdint>
#include <vector>

namespace poseidon {
namespace simd {
namespace internal {

/// Packs row-major A[m,k] into ceil(m/8) row blocks of k×8 floats: block r
/// holds A[8r + l, p] at [(r*k + p)*8 + l], zero-padded past row m. Returns a
/// per-thread buffer that the next call on the same thread overwrites. Its
/// size is A's (the activation or factor), never the weight's.
inline const float* PackRowBlocks8(const float* a, int64_t m, int64_t k) {
  thread_local std::vector<float> packed;
  const int64_t blocks = (m + 7) / 8;
  packed.assign(static_cast<size_t>(blocks * k * 8), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* dst = packed.data() + (i / 8) * k * 8 + (i % 8);
    for (int64_t p = 0; p < k; ++p) {
      dst[p * 8] = a_row[p];
    }
  }
  return packed.data();
}

}  // namespace internal
}  // namespace simd
}  // namespace poseidon

#endif  // POSEIDON_SRC_SIMD_GEMM_PACK_H_
