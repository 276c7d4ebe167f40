#include "stof/sparse/bsr_mask.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace stof::sparse {

BsrMask BsrMask::build(const masks::Mask& mask, std::int64_t block_m,
                       std::int64_t block_n) {
  STOF_EXPECTS(block_m > 0 && block_n > 0);
  BsrMask out;
  out.seq_len_ = mask.seq_len();
  out.block_m_ = block_m;
  out.block_n_ = block_n;

  const std::int64_t brows = out.rows();
  const std::int64_t bcols = out.cols();
  out.full_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.part_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.load_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);

  // Dedup map: block bitmap bytes -> id in part_masks_.
  std::unordered_map<std::string, std::int32_t> bitmap_ids;

  std::vector<std::uint8_t> bitmap(
      static_cast<std::size_t>(block_m * block_n));

  for (std::int64_t bi = 0; bi < brows; ++bi) {
    for (std::int64_t bj = 0; bj < bcols; ++bj) {
      // Extract the block; out-of-range elements are invalid (edge blocks).
      std::int64_t valid = 0;
      std::int64_t in_range = 0;
      for (std::int64_t r = 0; r < block_m; ++r) {
        for (std::int64_t c = 0; c < block_n; ++c) {
          const std::int64_t i = bi * block_m + r;
          const std::int64_t j = bj * block_n + c;
          std::uint8_t v = 0;
          if (i < out.seq_len_ && j < out.seq_len_) {
            ++in_range;
            v = mask.at(i, j) ? 1 : 0;
          }
          bitmap[static_cast<std::size_t>(r * block_n + c)] = v;
          valid += v;
        }
      }
      if (valid == 0) continue;  // empty block: skipped entirely

      out.load_col_idx_.push_back(static_cast<std::int32_t>(bj));
      ++out.load_row_ptr_[static_cast<std::size_t>(bi) + 1];

      if (valid == in_range) {  // full block: dense compute, no mask load
        out.full_col_idx_.push_back(static_cast<std::int32_t>(bj));
        ++out.full_row_ptr_[static_cast<std::size_t>(bi) + 1];
        continue;
      }

      // Part block: deduplicate the bitmap and record its id.
      const std::string key(reinterpret_cast<const char*>(bitmap.data()),
                            bitmap.size());
      auto [it, inserted] = bitmap_ids.try_emplace(
          key, static_cast<std::int32_t>(out.part_masks_.size()));
      if (inserted) out.part_masks_.push_back(bitmap);
      out.part_col_idx_.push_back(static_cast<std::int32_t>(bj));
      out.part_mask_id_.push_back(it->second);
      ++out.part_row_ptr_[static_cast<std::size_t>(bi) + 1];
    }
  }

  // Prefix-sum the per-row counts into CSR row pointers.
  for (std::size_t i = 1; i < out.full_row_ptr_.size(); ++i) {
    out.full_row_ptr_[i] += out.full_row_ptr_[i - 1];
    out.part_row_ptr_[i] += out.part_row_ptr_[i - 1];
    out.load_row_ptr_[i] += out.load_row_ptr_[i - 1];
  }

  STOF_ENSURES(out.load_row_ptr_.back() ==
               static_cast<std::int64_t>(out.load_col_idx_.size()));
  return out;
}

BsrMask BsrMask::prefix(std::int64_t len) const {
  STOF_EXPECTS(len >= 0 && len <= seq_len_,
               "prefix length must be in [0, seq_len]");
  BsrMask out;
  out.seq_len_ = seq_len_;
  out.block_m_ = block_m_;
  out.block_n_ = block_n_;
  const auto ptrs = static_cast<std::size_t>(rows()) + 1;
  out.full_row_ptr_.assign(ptrs, 0);
  out.part_row_ptr_.assign(ptrs, 0);
  out.load_row_ptr_.assign(ptrs, 0);

  // Dedup in first-occurrence order, as build() does: an unclipped part
  // block reuses its base bitmap's new id; every bitmap taken is indexed by
  // content, so a clipped bitmap equal to another one shares its id.
  std::vector<std::int32_t> base_to_new(part_masks_.size(), -1);
  std::unordered_map<std::string, std::int32_t> bitmap_ids;
  const auto intern = [&](const std::vector<std::uint8_t>& bitmap) {
    const std::string key(reinterpret_cast<const char*>(bitmap.data()),
                          bitmap.size());
    auto [it, inserted] = bitmap_ids.try_emplace(
        key, static_cast<std::int32_t>(out.part_masks_.size()));
    if (inserted) out.part_masks_.push_back(bitmap);
    return it->second;
  };
  // Record block (bi, bj): full when part_id < 0, else a part block.
  const auto add = [&](std::int64_t bi, std::int64_t bj,
                       std::int32_t part_id) {
    const auto row = static_cast<std::size_t>(bi) + 1;
    out.load_col_idx_.push_back(static_cast<std::int32_t>(bj));
    ++out.load_row_ptr_[row];
    if (part_id < 0) {
      out.full_col_idx_.push_back(static_cast<std::int32_t>(bj));
      ++out.full_row_ptr_[row];
      return;
    }
    out.part_col_idx_.push_back(static_cast<std::int32_t>(bj));
    out.part_mask_id_.push_back(part_id);
    ++out.part_row_ptr_[row];
  };

  std::vector<std::uint8_t> clipped(
      static_cast<std::size_t>(block_m_ * block_n_));
  const std::int64_t row_end = (len + block_m_ - 1) / block_m_;
  const std::int64_t col_end = (len + block_n_ - 1) / block_n_;
  for (std::int64_t bi = 0; bi < row_end; ++bi) {
    // A block is clipped when the len boundary cuts in-range elements
    // from it; blocks cut only by seq_len are unchanged.
    const bool row_clipped = std::min(seq_len_, (bi + 1) * block_m_) > len;
    auto part = static_cast<std::size_t>(
        part_row_ptr_[static_cast<std::size_t>(bi)]);
    const auto part_end = static_cast<std::size_t>(
        part_row_ptr_[static_cast<std::size_t>(bi) + 1]);
    for (std::int64_t it = load_row_ptr_[static_cast<std::size_t>(bi)];
         it < load_row_ptr_[static_cast<std::size_t>(bi) + 1]; ++it) {
      const std::int64_t bj = load_col_idx_[static_cast<std::size_t>(it)];
      if (bj >= col_end) break;  // load columns ascend
      const std::vector<std::uint8_t>* bits = nullptr;
      std::int32_t base_id = -1;
      if (part < part_end && part_col_idx_[part] == bj) {
        base_id = part_mask_id_[part++];
        bits = &part_masks_[static_cast<std::size_t>(base_id)];
      }
      const bool col_clipped = std::min(seq_len_, (bj + 1) * block_n_) > len;

      if (!row_clipped && !col_clipped) {
        std::int32_t id = -1;
        if (bits != nullptr) {
          auto& mapped = base_to_new[static_cast<std::size_t>(base_id)];
          if (mapped < 0) mapped = intern(*bits);
          id = mapped;
        }
        add(bi, bj, id);
        continue;
      }

      // Clipped: the base bitmap (all ones for a full block) restricted to
      // [0, len)^2, classified exactly as build() classifies it.
      std::int64_t valid = 0;
      std::int64_t in_range = 0;
      for (std::int64_t r = 0; r < block_m_; ++r) {
        for (std::int64_t c = 0; c < block_n_; ++c) {
          const std::int64_t i = bi * block_m_ + r;
          const std::int64_t j = bj * block_n_ + c;
          const auto at = static_cast<std::size_t>(r * block_n_ + c);
          std::uint8_t v = 0;
          if (i < seq_len_ && j < seq_len_) {
            ++in_range;
            if (i < len && j < len) v = bits == nullptr ? 1 : (*bits)[at];
          }
          clipped[at] = v;
          valid += v;
        }
      }
      if (valid == 0) continue;
      add(bi, bj, valid == in_range ? -1 : intern(clipped));
    }
  }

  for (std::size_t i = 1; i < ptrs; ++i) {
    out.full_row_ptr_[i] += out.full_row_ptr_[i - 1];
    out.part_row_ptr_[i] += out.part_row_ptr_[i - 1];
    out.load_row_ptr_[i] += out.load_row_ptr_[i - 1];
  }
  return out;
}

BlockKind BsrMask::block_kind(std::int64_t bi, std::int64_t bj) const {
  STOF_EXPECTS(bi >= 0 && bi < rows() && bj >= 0 && bj < cols());
  const auto in_row = [bj](const std::vector<std::int64_t>& ptr,
                           const std::vector<std::int32_t>& idx,
                           std::int64_t row) {
    const auto first = idx.begin() + ptr[static_cast<std::size_t>(row)];
    const auto last = idx.begin() + ptr[static_cast<std::size_t>(row) + 1];
    return std::binary_search(first, last, static_cast<std::int32_t>(bj));
  };
  if (in_row(full_row_ptr_, full_col_idx_, bi)) return BlockKind::kFull;
  if (in_row(part_row_ptr_, part_col_idx_, bi)) return BlockKind::kPart;
  return BlockKind::kEmpty;
}

const std::vector<std::uint8_t>& BsrMask::part_bitmap(std::int64_t bi,
                                                      std::int64_t bj) const {
  STOF_EXPECTS(bi >= 0 && bi < rows());
  const auto first =
      part_col_idx_.begin() + part_row_ptr_[static_cast<std::size_t>(bi)];
  const auto last =
      part_col_idx_.begin() + part_row_ptr_[static_cast<std::size_t>(bi) + 1];
  const auto it = std::lower_bound(first, last, static_cast<std::int32_t>(bj));
  STOF_EXPECTS(it != last && *it == bj, "block is not a part block");
  const auto pos = static_cast<std::size_t>(it - part_col_idx_.begin());
  return part_masks_[static_cast<std::size_t>(part_mask_id_[pos])];
}

std::size_t BsrMask::storage_bytes() const {
  std::size_t bytes = 0;
  bytes += (full_row_ptr_.size() + part_row_ptr_.size() +
            load_row_ptr_.size()) *
           sizeof(std::int64_t);
  bytes += (full_col_idx_.size() + part_col_idx_.size() +
            part_mask_id_.size() + load_col_idx_.size()) *
           sizeof(std::int32_t);
  for (const auto& m : part_masks_) bytes += m.size();
  return bytes;
}

void BsrMask::row_cols(std::int64_t row,
                       std::vector<std::int32_t>& cols) const {
  STOF_EXPECTS(row >= 0 && row < seq_len_);
  const std::int64_t bi = row / block_m_;
  const std::int64_t r = row - bi * block_m_;
  RowBlocks blocks(*this, bi);
  for (std::int64_t it = load_row_ptr_[static_cast<std::size_t>(bi)];
       it < load_row_ptr_[static_cast<std::size_t>(bi) + 1]; ++it) {
    const std::int64_t bj = load_col_idx_[static_cast<std::size_t>(it)];
    const std::int64_t lo = bj * block_n_;
    const std::int64_t n = std::min(block_n_, seq_len_ - lo);
    const std::vector<std::uint8_t>* bitmap = blocks.bitmap(bj);
    for (std::int64_t c = 0; c < n; ++c) {
      if (bitmap == nullptr ||
          (*bitmap)[static_cast<std::size_t>(r * block_n_ + c)] != 0) {
        cols.push_back(static_cast<std::int32_t>(lo + c));
      }
    }
  }
}

masks::Mask BsrMask::to_dense() const {
  masks::Mask m(seq_len_);
  for (std::int64_t bi = 0; bi < rows(); ++bi) {
    // Full blocks.
    for (std::int64_t k = full_row_ptr_[static_cast<std::size_t>(bi)];
         k < full_row_ptr_[static_cast<std::size_t>(bi) + 1]; ++k) {
      const std::int64_t bj = full_col_idx_[static_cast<std::size_t>(k)];
      for (std::int64_t r = 0; r < block_m_; ++r) {
        for (std::int64_t c = 0; c < block_n_; ++c) {
          const std::int64_t i = bi * block_m_ + r;
          const std::int64_t j = bj * block_n_ + c;
          if (i < seq_len_ && j < seq_len_) m.set(i, j);
        }
      }
    }
    // Part blocks.
    for (std::int64_t k = part_row_ptr_[static_cast<std::size_t>(bi)];
         k < part_row_ptr_[static_cast<std::size_t>(bi) + 1]; ++k) {
      const std::int64_t bj = part_col_idx_[static_cast<std::size_t>(k)];
      const auto& bm =
          part_masks_[static_cast<std::size_t>(
              part_mask_id_[static_cast<std::size_t>(k)])];
      for (std::int64_t r = 0; r < block_m_; ++r) {
        for (std::int64_t c = 0; c < block_n_; ++c) {
          const std::int64_t i = bi * block_m_ + r;
          const std::int64_t j = bj * block_n_ + c;
          if (i < seq_len_ && j < seq_len_ &&
              bm[static_cast<std::size_t>(r * block_n_ + c)]) {
            m.set(i, j);
          }
        }
      }
    }
  }
  return m;
}

}  // namespace stof::sparse
