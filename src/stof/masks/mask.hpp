// Attention mask patterns.
//
// A Mask is a dense seq_len x seq_len boolean matrix: entry (i, j) is true
// when query token i may attend to key token j.  This module generates the
// atomic patterns of the paper's Fig. 1 (global, dilated, sliding window,
// random) and the compound patterns built from them (causal, Longformer =
// global | sliding window, BigBird = global | sliding window | random), and
// computes the distribution statistics reported in Table 2.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/core/rng.hpp"

namespace stof::masks {

/// Dense boolean attention mask (true = attend / valid element).
class Mask {
 public:
  Mask() = default;
  explicit Mask(std::int64_t seq_len, bool value = false)
      : seq_len_(seq_len),
        bits_(static_cast<std::size_t>(seq_len * seq_len), value ? 1 : 0) {
    STOF_EXPECTS(seq_len > 0);
  }

  [[nodiscard]] std::int64_t seq_len() const { return seq_len_; }

  [[nodiscard]] bool at(std::int64_t i, std::int64_t j) const {
    return bits_[flat(i, j)] != 0;
  }
  void set(std::int64_t i, std::int64_t j, bool v = true) {
    bits_[flat(i, j)] = v ? 1 : 0;
  }
  /// Row i's seq_len entries, each 0 or 1 — at(i, j) for every j without
  /// a per-element bounds check.
  [[nodiscard]] std::span<const std::uint8_t> row(std::int64_t i) const {
    STOF_EXPECTS(i >= 0 && i < seq_len_);
    return {bits_.data() + i * seq_len_, static_cast<std::size_t>(seq_len_)};
  }

  /// Number of valid (attendable) elements.
  [[nodiscard]] std::int64_t valid_count() const {
    std::int64_t n = 0;
    for (auto b : bits_) n += b;
    return n;
  }

  /// Fraction of *masked-out* elements, as reported in Table 2.
  [[nodiscard]] double sparsity() const {
    return 1.0 - static_cast<double>(valid_count()) /
                     static_cast<double>(seq_len_ * seq_len_);
  }

  /// Elementwise OR — compound patterns are unions of atomic patterns.
  [[nodiscard]] Mask operator|(const Mask& o) const {
    STOF_EXPECTS(seq_len_ == o.seq_len_, "mask size mismatch");
    Mask out(seq_len_);
    for (std::size_t k = 0; k < bits_.size(); ++k)
      out.bits_[k] = bits_[k] | o.bits_[k];
    return out;
  }

  /// Elementwise AND (e.g., restricting a pattern to the causal triangle).
  [[nodiscard]] Mask operator&(const Mask& o) const {
    STOF_EXPECTS(seq_len_ == o.seq_len_, "mask size mismatch");
    Mask out(seq_len_);
    for (std::size_t k = 0; k < bits_.size(); ++k)
      out.bits_[k] = bits_[k] & o.bits_[k];
    return out;
  }

  friend bool operator==(const Mask& a, const Mask& b) {
    return a.seq_len_ == b.seq_len_ && a.bits_ == b.bits_;
  }

 private:
  [[nodiscard]] std::size_t flat(std::int64_t i, std::int64_t j) const {
    STOF_EXPECTS(i >= 0 && i < seq_len_ && j >= 0 && j < seq_len_);
    return static_cast<std::size_t>(i * seq_len_ + j);
  }

  std::int64_t seq_len_ = 0;
  std::vector<std::uint8_t> bits_;
};

/// Pattern families, used by baselines to decide native support
/// (e.g., FlashAttention2 handles Causal and SlidingWindow only).
enum class PatternKind {
  kDense,
  kCausal,
  kSlidingWindow,
  kDilated,
  kGlobal,
  kRandom,
  kLongformer,
  kBigBird,
  kStrided,  ///< Sparse Transformer (Child et al.): causal local + stride
  kCustom,
};

[[nodiscard]] std::string to_string(PatternKind kind);

/// Declarative description of a mask; `build()` materializes it.
///
/// Parameter defaults follow the paper (band width = global width =
/// sqrt(seq_len), dilation rate 1, random filling rate 10%).
struct MaskSpec {
  PatternKind kind = PatternKind::kDense;
  std::int64_t seq_len = 0;
  std::int64_t band_width = 0;    ///< 0 = sqrt(seq_len)
  std::int64_t global_width = 0;  ///< 0 = sqrt(seq_len)
  std::int64_t dilation_rate = 1;
  double filling_rate = 0.10;     ///< random pattern block fill probability
  std::int64_t random_block = 0;  ///< 0 = sqrt(seq_len)
  std::int64_t stride = 0;        ///< strided pattern stride; 0 = sqrt(seq)
  std::uint64_t seed = 42;

  [[nodiscard]] Mask build() const;

  /// True when the pattern is deterministic given its parameters
  /// (Table 2 "Sparsity Type": Structured vs Unstructured).
  [[nodiscard]] bool structured() const {
    return kind != PatternKind::kRandom && kind != PatternKind::kBigBird &&
           kind != PatternKind::kCustom;
  }
};

// ---- Atomic patterns (paper Fig. 1 (a)-(d)) -------------------------------

/// All elements valid (dense attention).
Mask dense(std::int64_t seq_len);

/// Lower-triangular causal mask: j <= i.
Mask causal(std::int64_t seq_len);

/// Banded mask: |i - j| < band_width.
Mask sliding_window(std::int64_t seq_len, std::int64_t band_width);

/// Hole-punched band: |i - j| < band_width * (rate + 1) and
/// (i - j) divisible by (rate + 1).
Mask dilated(std::int64_t seq_len, std::int64_t band_width,
             std::int64_t dilation_rate);

/// Global hub rows and columns: i < width or j < width.
Mask global(std::int64_t seq_len, std::int64_t width);

/// Random block fill: the matrix is tiled with block x block tiles and each
/// tile is made valid with probability filling_rate.
Mask random_blocks(std::int64_t seq_len, std::int64_t block,
                   double filling_rate, std::uint64_t seed);

// ---- Compound patterns (paper Fig. 1 (e)-(f)) -----------------------------

/// Longformer = global | sliding window.
Mask longformer(std::int64_t seq_len, std::int64_t global_width,
                std::int64_t band_width);

/// BigBird = global | sliding window | random blocks.
Mask bigbird(std::int64_t seq_len, std::int64_t global_width,
             std::int64_t band_width, double filling_rate,
             std::int64_t random_block, std::uint64_t seed);

/// Sparse Transformer (Child et al., the paper's ref [11]): causal local
/// attention over the previous `stride` tokens plus a causal strided
/// component attending to every position j with (i - j) % stride == 0.
Mask strided(std::int64_t seq_len, std::int64_t stride);

// ---- Table 2 statistics ----------------------------------------------------

enum class Distribution { kContinuous, kDiscrete, kEmpty };

[[nodiscard]] std::string to_string(Distribution d);

struct MaskStats {
  double sparsity = 0;
  Distribution row_distribution = Distribution::kEmpty;
  Distribution col_distribution = Distribution::kEmpty;
};

/// Row/column contiguity analysis: a distribution is Continuous when the
/// valid elements of every non-empty row (resp. column) form one
/// contiguous run, Discrete otherwise.
MaskStats analyze(const Mask& mask);

}  // namespace stof::masks
