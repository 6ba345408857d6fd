#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "src/simd/vec.h"

namespace poseidon {

// The three products run on the bitwise-pinned kernels in src/simd: every
// output element sums its products in ascending p, so the result does not
// depend on the dispatched backend.
void Gemm(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  simd::Gemm(a.data(), b.data(), out->data(), m, k, n);
}

void GemmTransA(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t k = a.dim(0);
  const int64_t m = a.dim(1);
  CHECK_EQ(b.dim(0), k);
  const int64_t n = b.dim(1);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  simd::GemmTransA(a.data(), b.data(), out->data(), k, m, n);
}

void GemmTransB(const Tensor& a, const Tensor& b, Tensor* out) {
  CHECK_EQ(a.ndim(), 2);
  CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  CHECK_EQ(b.dim(1), k);
  const int64_t n = b.dim(0);
  CHECK_EQ(out->dim(0), m);
  CHECK_EQ(out->dim(1), n);
  simd::GemmTransB(a.data(), b.data(), out->data(), m, k, n);
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  CHECK(x.SameShape(*y));
  simd::Axpy(y->data(), alpha, x.data(), x.size());
}

void Scale(float alpha, Tensor* y) { simd::Scale(y->data(), alpha, y->size()); }

double SumSquares(const Tensor& x) {
  double acc = 0.0;
  const float* xd = x.data();
  for (int64_t i = 0; i < x.size(); ++i) {
    acc += static_cast<double>(xd[i]) * xd[i];
  }
  return acc;
}

double Norm(const Tensor& x) { return std::sqrt(SumSquares(x)); }

double MaxAbsDiff(const Tensor& x, const Tensor& y) {
  CHECK(x.SameShape(y));
  double worst = 0.0;
  for (int64_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, static_cast<double>(std::fabs(x[i] - y[i])));
  }
  return worst;
}

void AddRowVector(const Tensor& v, Tensor* m) {
  CHECK_EQ(v.ndim(), 1);
  CHECK_EQ(m->ndim(), 2);
  CHECK_EQ(v.dim(0), m->dim(1));
  const int64_t rows = m->dim(0);
  const int64_t cols = m->dim(1);
  // Per-row simd::ReduceAdd keeps the per-element association identical to
  // the historical scalar loop (row[c] += v[c], elementwise).
  for (int64_t r = 0; r < rows; ++r) {
    simd::ReduceAdd(m->data() + r * cols, v.data(), cols);
  }
}

void SumRows(const Tensor& m, Tensor* v) {
  CHECK_EQ(m.ndim(), 2);
  CHECK_EQ(v->ndim(), 1);
  CHECK_EQ(v->dim(0), m.dim(1));
  v->SetZero();
  const int64_t rows = m.dim(0);
  const int64_t cols = m.dim(1);
  // Row-major accumulation in row order: each v[c] sees rows in the same
  // sequence as the historical loop, so the sums are bitwise unchanged.
  for (int64_t r = 0; r < rows; ++r) {
    simd::ReduceAdd(v->data(), m.data() + r * cols, cols);
  }
}

}  // namespace poseidon
