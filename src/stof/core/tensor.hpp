// Dense row-major tensors.
//
// STOF's simulated kernels operate on host memory standing in for GPU
// global memory.  Tensor<T> owns a contiguous row-major buffer with up to
// four dimensions (batch, head, row, col) — the shapes that appear in
// multi-head attention.  Views are intentionally *not* provided: kernels
// address sub-blocks with explicit index arithmetic, mirroring how the CUDA
// kernels compute global-memory offsets.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <numeric>
#include <ostream>
#include <span>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/half.hpp"
#include "stof/core/rng.hpp"

namespace stof {

/// Shape of a tensor: up to four dimensions, row-major.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) {
    STOF_EXPECTS(dims.size() >= 1 && dims.size() <= 4,
                 "tensors are rank 1..4");
    rank_ = dims.size();
    std::size_t i = 0;
    for (auto d : dims) {
      STOF_EXPECTS(d > 0, "dimensions must be positive");
      dims_[i++] = d;
    }
  }

  [[nodiscard]] std::size_t rank() const { return rank_; }
  [[nodiscard]] std::int64_t dim(std::size_t i) const {
    STOF_EXPECTS(i < rank_);
    return dims_[i];
  }
  [[nodiscard]] std::int64_t operator[](std::size_t i) const { return dim(i); }

  [[nodiscard]] std::int64_t numel() const {
    std::int64_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return n;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t i = 0; i < a.rank_; ++i)
      if (a.dims_[i] != b.dims_[i]) return false;
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

  friend std::ostream& operator<<(std::ostream& os, const Shape& s) {
    os << '(';
    for (std::size_t i = 0; i < s.rank_; ++i) {
      if (i) os << ", ";
      os << s.dims_[i];
    }
    return os << ')';
  }

 private:
  std::array<std::int64_t, 4> dims_ = {1, 1, 1, 1};
  std::size_t rank_ = 0;
};

/// Owning dense row-major tensor of element type T (float or half).
template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.numel())) {}

  Tensor(Shape shape, T fill_value) : Tensor(shape) { fill(fill_value); }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return shape_.numel(); }
  [[nodiscard]] std::size_t size_bytes() const {
    return data_.size() * sizeof(T);
  }

  [[nodiscard]] std::span<T> data() { return data_; }
  [[nodiscard]] std::span<const T> data() const { return data_; }

  // Element access with explicit rank; bounds enforced on the leading index
  // arithmetic only in the rank-checked accessors below.
  T& at(std::int64_t i) { return data_[idx({i})]; }
  T& at(std::int64_t i, std::int64_t j) { return data_[idx({i, j})]; }
  T& at(std::int64_t i, std::int64_t j, std::int64_t k) {
    return data_[idx({i, j, k})];
  }
  T& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[idx({i, j, k, l})];
  }
  const T& at(std::int64_t i) const { return data_[idx({i})]; }
  const T& at(std::int64_t i, std::int64_t j) const {
    return data_[idx({i, j})];
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return data_[idx({i, j, k})];
  }
  const T& at(std::int64_t i, std::int64_t j, std::int64_t k,
              std::int64_t l) const {
    return data_[idx({i, j, k, l})];
  }

  void fill(T value) {
    for (auto& v : data_) v = value;
  }

  /// Fill with uniform values in [lo, hi) from a seeded generator.
  void fill_random(Rng& rng, float lo = -1.0f, float hi = 1.0f) {
    for (auto& v : data_) v = T(rng.uniform(lo, hi));
  }

  /// Elementwise conversion to float (useful for comparisons in tests).
  [[nodiscard]] Tensor<float> to_float() const {
    Tensor<float> out(shape_);
    for (std::int64_t i = 0; i < numel(); ++i)
      out.data()[static_cast<std::size_t>(i)] =
          static_cast<float>(data_[static_cast<std::size_t>(i)]);
    return out;
  }

 private:
  [[nodiscard]] std::size_t idx(
      std::initializer_list<std::int64_t> indices) const {
    STOF_EXPECTS(indices.size() == shape_.rank(), "rank mismatch in at()");
    std::size_t flat = 0;
    std::size_t d = 0;
    for (auto i : indices) {
      STOF_EXPECTS(i >= 0 && i < shape_.dim(d), "index out of range");
      flat = flat * static_cast<std::size_t>(shape_.dim(d)) +
             static_cast<std::size_t>(i);
      ++d;
    }
    return flat;
  }

  Shape shape_;
  std::vector<T> data_;
};

using TensorF = Tensor<float>;
using TensorH = Tensor<half>;

/// Maximum absolute elementwise difference between two same-shaped tensors.
template <typename T, typename U>
double max_abs_diff(const Tensor<T>& a, const Tensor<U>& b) {
  STOF_EXPECTS(a.shape() == b.shape(), "shape mismatch in max_abs_diff");
  double m = 0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double d =
        std::abs(static_cast<double>(static_cast<float>(
                     a.data()[static_cast<std::size_t>(i)])) -
                 static_cast<double>(static_cast<float>(
                     b.data()[static_cast<std::size_t>(i)])));
    if (d > m) m = d;
  }
  return m;
}

}  // namespace stof
