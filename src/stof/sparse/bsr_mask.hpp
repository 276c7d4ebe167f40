// Block compressed sparse row (BSR) mask storage — the paper's Fig. 6.
//
// The dense mask is tiled into (BLOCK_M x BLOCK_N) blocks and each block is
// classified:
//   * full  — every element valid: the kernel computes the block densely and
//             never touches mask data;
//   * part  — mixed: the kernel loads a block bitmap and applies it after
//             the score GEMM;
//   * empty — skipped entirely: neither K/V sub-blocks nor scores are
//             loaded or computed.
//
// Full and part blocks are stored in two CSR-like structures
// (full_row_ptr/full_col_idx and part_row_ptr/part_col_idx).  Identical
// part bitmaps are deduplicated: part_mask_id points every part entry at
// one of the unique bitmaps in part_masks, which the kernel broadcasts —
// sliding-window masks, for example, repeat two or three distinct edge
// bitmaps thousands of times.  load_row_ptr/load_col_idx merge both kinds
// per row so the kernel's inner loop walks a single sorted index list.
#pragma once

#include <cstdint>
#include <vector>

#include "stof/core/check.hpp"
#include "stof/masks/mask.hpp"

namespace stof::sparse {

enum class BlockKind { kEmpty, kPart, kFull };

/// Block-sparse representation of an attention mask.
class BsrMask {
 public:
  /// Tile `mask` into (block_m x block_n) blocks and classify.
  /// seq_len does not need to divide the block sizes; edge blocks are
  /// classified over their in-range elements only.
  static BsrMask build(const masks::Mask& mask, std::int64_t block_m,
                       std::int64_t block_n);

  /// BSR of this mask restricted to its leading len x len square — the
  /// same seq_len, block sizes and rows() as this mask, with every element
  /// at row or column >= len invalid.  Equal, array for array, to
  /// build(<this mask with rows/cols >= len cleared>, block_m, block_n),
  /// but derived in O(blocks) from this BSR: block rows from ceil(len /
  /// BLOCK_M) on are empty, unclipped blocks keep their kind and bitmap,
  /// and only blocks the len boundary cuts re-derive a bitmap (and are
  /// classified against seq_len's in-range count, as build() does).  Part
  /// bitmaps are deduplicated in first-occurrence order, so part_masks()
  /// and storage_bytes() match build() too.  Serving derives each ragged
  /// batch element's BSR this way from one base BSR per mask kind.
  /// Requires 0 <= len <= seq_len().
  [[nodiscard]] BsrMask prefix(std::int64_t len) const;

  [[nodiscard]] std::int64_t seq_len() const { return seq_len_; }
  [[nodiscard]] std::int64_t block_m() const { return block_m_; }
  [[nodiscard]] std::int64_t block_n() const { return block_n_; }
  /// Number of block rows: ceil(seq_len / BLOCK_M).
  [[nodiscard]] std::int64_t rows() const {
    return (seq_len_ + block_m_ - 1) / block_m_;
  }
  /// Number of block columns: ceil(seq_len / BLOCK_N).
  [[nodiscard]] std::int64_t cols() const {
    return (seq_len_ + block_n_ - 1) / block_n_;
  }

  // CSR arrays exactly as named in the paper.
  [[nodiscard]] const std::vector<std::int64_t>& full_row_ptr() const {
    return full_row_ptr_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& full_col_idx() const {
    return full_col_idx_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& part_row_ptr() const {
    return part_row_ptr_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& part_col_idx() const {
    return part_col_idx_;
  }
  /// For each part entry, the index of its (deduplicated) bitmap.
  [[nodiscard]] const std::vector<std::int32_t>& part_mask_id() const {
    return part_mask_id_;
  }
  /// Unique block bitmaps, each block_m*block_n bytes, row-major.
  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& part_masks()
      const {
    return part_masks_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& load_row_ptr() const {
    return load_row_ptr_;
  }
  [[nodiscard]] const std::vector<std::int32_t>& load_col_idx() const {
    return load_col_idx_;
  }

  /// Classification of block (bi, bj); O(log n) search in the row.
  [[nodiscard]] BlockKind block_kind(std::int64_t bi, std::int64_t bj) const;

  /// Bitmap for a part block (bi, bj). Precondition: kind is kPart.
  [[nodiscard]] const std::vector<std::uint8_t>& part_bitmap(
      std::int64_t bi, std::int64_t bj) const;

  [[nodiscard]] std::int64_t full_count() const {
    return static_cast<std::int64_t>(full_col_idx_.size());
  }
  [[nodiscard]] std::int64_t part_count() const {
    return static_cast<std::int64_t>(part_col_idx_.size());
  }
  /// Valid (full + part) blocks — the kernel's actual work set.
  [[nodiscard]] std::int64_t valid_count() const {
    return full_count() + part_count();
  }
  /// Ratio of valid blocks to total blocks (input to the paper's Eq. 1).
  [[nodiscard]] double valid_ratio() const {
    return static_cast<double>(valid_count()) /
           static_cast<double>(rows() * cols());
  }
  [[nodiscard]] std::int64_t unique_part_masks() const {
    return static_cast<std::int64_t>(part_masks_.size());
  }

  /// Bytes this representation occupies (what the kernel streams from
  /// global memory for mask metadata).
  [[nodiscard]] std::size_t storage_bytes() const;

  /// Walks one block row's load list in order, pairing each loaded block
  /// with its bitmap: the part list is a sorted subsequence of the load
  /// list, so one cursor over it replaces a per-block binary search.
  class RowBlocks {
   public:
    RowBlocks(const BsrMask& mask, std::int64_t bi)
        : mask_(mask),
          part_(mask.part_row_ptr_[static_cast<std::size_t>(bi)]),
          part_end_(mask.part_row_ptr_[static_cast<std::size_t>(bi) + 1]) {}

    /// Bitmap of load entry `bj` (visited in load order), or nullptr for a
    /// full block.
    const std::vector<std::uint8_t>* bitmap(std::int64_t bj) {
      if (part_ == part_end_ ||
          mask_.part_col_idx_[static_cast<std::size_t>(part_)] != bj) {
        return nullptr;
      }
      const auto id = mask_.part_mask_id_[static_cast<std::size_t>(part_++)];
      return &mask_.part_masks_[static_cast<std::size_t>(id)];
    }

   private:
    const BsrMask& mask_;
    std::int64_t part_;
    std::int64_t part_end_;
  };

  /// Append element row `row`'s valid columns (to_dense()'s set bits) to
  /// `cols`, ascending: whole in-range spans of full blocks, bitmap rows of
  /// part blocks.  O(loaded blocks in the row + columns appended).
  void row_cols(std::int64_t row, std::vector<std::int32_t>& cols) const;

  /// Reconstruct the dense mask (for round-trip validation).
  [[nodiscard]] masks::Mask to_dense() const;

 private:
  std::int64_t seq_len_ = 0;
  std::int64_t block_m_ = 0;
  std::int64_t block_n_ = 0;
  std::vector<std::int64_t> full_row_ptr_;
  std::vector<std::int32_t> full_col_idx_;
  std::vector<std::int64_t> part_row_ptr_;
  std::vector<std::int32_t> part_col_idx_;
  std::vector<std::int32_t> part_mask_id_;
  std::vector<std::vector<std::uint8_t>> part_masks_;
  std::vector<std::int64_t> load_row_ptr_;
  std::vector<std::int32_t> load_col_idx_;
};

}  // namespace stof::sparse
