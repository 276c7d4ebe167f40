#include <algorithm>
#include <cassert>

#include "oracle/oracle.hpp"
#include "stof/core/check.hpp"
#include "stof/parallel/parallel_for.hpp"

namespace stof::oracle {

namespace {

using ops::Epilogue;

float apply_epilogue(float acc, Epilogue ep, float bias) {
  switch (ep) {
    case Epilogue::kNone: return acc;
    case Epilogue::kBias: return acc + bias;
    case Epilogue::kBiasRelu: return std::max(0.0f, acc + bias);
    case Epilogue::kBiasGelu: return ops::gelu(acc + bias);
  }
  return acc;
}

/// Raw-pointer view of one GEMM problem, shapes checked by the callers.
struct GemmView {
  const half* a = nullptr;     ///< (batch, m, k) row-major
  const half* b = nullptr;     ///< (k, n) or (batch, k, n) row-major
  half* c = nullptr;           ///< (batch, m, n) row-major
  const half* bias = nullptr;  ///< (n) when the epilogue uses it
  std::int64_t batch = 1;
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
  bool batched_b = false;
  Epilogue epilogue = Epilogue::kNone;
};

/// Scalar reference: one FP32 accumulator per output element, k ascending.
/// Row pointers hoist the per-element stride arithmetic (and the division
/// that recovers (batch, row) from the flat task index) out of the k-loop.
void run_scalar(const GemmView& v) {
  parallel_for(0, v.batch * v.m, [&](std::int64_t bm) {
    const std::int64_t bi = bm / v.m;
    const std::int64_t mi = bm % v.m;
    assert(bi < v.batch && mi < v.m);
    const half* a_row = v.a + (bi * v.m + mi) * v.k;
    const half* b_base = v.b + (v.batched_b ? bi * v.k * v.n : 0);
    half* c_row = v.c + (bi * v.m + mi) * v.n;
    for (std::int64_t ni = 0; ni < v.n; ++ni) {
      float acc = 0.0f;  // FP32 accumulate, as on tensor cores
      for (std::int64_t ki = 0; ki < v.k; ++ki) {
        acc += float(a_row[ki]) * float(b_base[ki * v.n + ni]);
      }
      const float bv =
          v.epilogue == Epilogue::kNone ? 0.0f : float(v.bias[ni]);
      c_row[ni] = half(apply_epilogue(acc, v.epilogue, bv));
    }
  });
}

}  // namespace

void gemm(const TensorH& a, const TensorH& b, TensorH& c, Epilogue epilogue,
          const TensorH* bias) {
  STOF_EXPECTS(a.shape().rank() == 3, "A must be (batch, m, k)");
  GemmView v;
  v.batch = a.shape()[0];
  v.m = a.shape()[1];
  v.k = a.shape()[2];
  v.batched_b = b.shape().rank() == 3;
  STOF_EXPECTS(v.batched_b || b.shape().rank() == 2,
               "B must be (k, n) or (batch, k, n)");
  v.n = v.batched_b ? b.shape()[2] : b.shape()[1];
  STOF_EXPECTS((v.batched_b ? b.shape()[1] : b.shape()[0]) == v.k,
               "inner dimensions must agree");
  if (v.batched_b) STOF_EXPECTS(b.shape()[0] == v.batch);
  STOF_EXPECTS(c.shape() == (Shape{v.batch, v.m, v.n}), "C shape mismatch");
  if (epilogue != Epilogue::kNone) {
    STOF_EXPECTS(bias != nullptr && bias->shape() == (Shape{v.n}),
                 "epilogue requires a (n) bias vector");
    v.bias = bias->data().data();
  }
  v.a = a.data().data();
  v.b = b.data().data();
  v.c = c.data().data();
  v.epilogue = epilogue;
  run_scalar(v);
}

void matmul2d(const TensorH& x, const TensorH& w, TensorH& y) {
  STOF_EXPECTS(x.shape().rank() == 2 && w.shape().rank() == 2);
  GemmView v;
  v.m = x.shape()[0];
  v.k = x.shape()[1];
  v.n = w.shape()[1];
  STOF_EXPECTS(w.shape()[0] == v.k, "matmul inner dimension mismatch");
  STOF_EXPECTS(y.shape() == (Shape{v.m, v.n}), "output shape mismatch");
  v.a = x.data().data();
  v.b = w.data().data();
  v.c = y.data().data();
  run_scalar(v);
}

}  // namespace stof::oracle
