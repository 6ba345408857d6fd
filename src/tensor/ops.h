// BLAS-like kernels over Tensor. These are the primitive operations the NN
// library's layers are built from. The three GEMMs run on the bitwise-pinned
// SIMD kernels of src/simd (docs/PERFORMANCE.md); the rest are
// straightforward loops.
#ifndef POSEIDON_SRC_TENSOR_OPS_H_
#define POSEIDON_SRC_TENSOR_OPS_H_

#include "src/tensor/tensor.h"

namespace poseidon {

// out = a * b. a is [m,k], b is [k,n], out is [m,n] (overwritten).
void Gemm(const Tensor& a, const Tensor& b, Tensor* out);

// out = a^T * b. a is [k,m], b is [k,n], out is [m,n] (overwritten).
void GemmTransA(const Tensor& a, const Tensor& b, Tensor* out);

// out = a * b^T. a is [m,k], b is [n,k], out is [m,n] (overwritten).
void GemmTransB(const Tensor& a, const Tensor& b, Tensor* out);

// y += alpha * x (element-wise, shapes must match).
void Axpy(float alpha, const Tensor& x, Tensor* y);

// y = alpha * y.
void Scale(float alpha, Tensor* y);

// Element-wise sum of squares.
double SumSquares(const Tensor& x);

// L2 norm.
double Norm(const Tensor& x);

// max_i |x_i - y_i|.
double MaxAbsDiff(const Tensor& x, const Tensor& y);

// Adds `v` (length n) to every row of `m` ([r,n]).
void AddRowVector(const Tensor& v, Tensor* m);

// Sums the rows of `m` ([r,n]) into `v` (length n, overwritten).
void SumRows(const Tensor& m, Tensor* v);

}  // namespace poseidon

#endif  // POSEIDON_SRC_TENSOR_OPS_H_
