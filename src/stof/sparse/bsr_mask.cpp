#include "stof/sparse/bsr_mask.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <string_view>
#include <unordered_map>

namespace stof::sparse {

namespace {

/// Deduplicates part bitmaps into `masks` in first-occurrence order.  The
/// keys view the stored bitmaps' bytes, which stay put as `masks` grows (a
/// moved vector keeps its buffer), so a lookup allocates nothing.
class BitmapInterner {
 public:
  explicit BitmapInterner(std::vector<std::vector<std::uint8_t>>& masks)
      : masks_(masks) {}

  /// Id of `bitmap` in `masks`, appending it on first sight.
  std::int32_t intern(std::span<const std::uint8_t> bitmap) {
    if (auto it = ids_.find(view(bitmap)); it != ids_.end()) return it->second;
    const auto id = static_cast<std::int32_t>(masks_.size());
    ids_.emplace(view(masks_.emplace_back(bitmap.begin(), bitmap.end())), id);
    return id;
  }

 private:
  static std::string_view view(std::span<const std::uint8_t> bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
  }

  std::vector<std::vector<std::uint8_t>>& masks_;
  std::unordered_map<std::string_view, std::int32_t> ids_;
};

/// Set entries of a run of 0/1 bytes, eight at a time: multiplying a word
/// of 0/1 bytes by 0x0101...01 sums them into its top byte.  std::count and
/// std::reduce over the same spans build 1024² BSRs about 2x slower (GCC 12).
std::int64_t count_ones(std::span<const std::uint8_t> bits) {
  std::int64_t n = 0;
  std::size_t c = 0;
  for (; c + 8 <= bits.size(); c += 8) {
    std::uint64_t word;
    std::memcpy(&word, bits.data() + c, sizeof(word));
    n += static_cast<std::int64_t>((word * 0x0101010101010101ull) >> 56);
  }
  for (; c < bits.size(); ++c) n += bits[c];
  return n;
}

}  // namespace

BsrMask BsrMask::build(const masks::Mask& mask, std::int64_t block_m,
                       std::int64_t block_n) {
  STOF_EXPECTS(block_m > 0 && block_n > 0);
  BsrMask out;
  const std::int64_t seq = mask.seq_len();
  out.seq_len_ = seq;
  out.block_m_ = block_m;
  out.block_n_ = block_n;

  const std::int64_t brows = out.rows();
  const std::int64_t bcols = out.cols();
  out.full_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.part_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.load_row_ptr_.assign(static_cast<std::size_t>(brows) + 1, 0);

  BitmapInterner bitmaps(out.part_masks_);
  std::vector<std::uint8_t> bitmap(
      static_cast<std::size_t>(block_m * block_n));

  for (std::int64_t bi = 0; bi < brows; ++bi) {
    const std::int64_t i0 = bi * block_m;
    const std::int64_t m = std::min(block_m, seq - i0);  // in-range rows
    const auto row = static_cast<std::size_t>(bi) + 1;
    for (std::int64_t bj = 0; bj < bcols; ++bj) {
      const std::int64_t j0 = bj * block_n;
      const auto n = static_cast<std::size_t>(std::min(block_n, seq - j0));
      // Count the block's valid elements over its in-range rows' spans;
      // out-of-range elements are invalid.
      std::int64_t valid = 0;
      for (std::int64_t r = 0; r < m; ++r) {
        valid += count_ones(
            mask.row(i0 + r).subspan(static_cast<std::size_t>(j0), n));
      }
      if (valid == 0) continue;  // empty block: skipped entirely

      out.load_col_idx_.push_back(static_cast<std::int32_t>(bj));
      ++out.load_row_ptr_[row];

      if (valid == m * static_cast<std::int64_t>(n)) {
        // Full block: dense compute, no mask load.
        out.full_col_idx_.push_back(static_cast<std::int32_t>(bj));
        ++out.full_row_ptr_[row];
        continue;
      }

      // Part block: gather its bitmap (edge padding stays 0), deduplicate
      // it and record its id.
      std::ranges::fill(bitmap, 0);
      for (std::int64_t r = 0; r < m; ++r) {
        std::ranges::copy(
            mask.row(i0 + r).subspan(static_cast<std::size_t>(j0), n),
            bitmap.begin() + r * block_n);
      }
      out.part_col_idx_.push_back(static_cast<std::int32_t>(bj));
      out.part_mask_id_.push_back(bitmaps.intern(bitmap));
      ++out.part_row_ptr_[row];
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
  BitmapInterner bitmaps(out.part_masks_);
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
          if (mapped < 0) mapped = bitmaps.intern(*bits);
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
      add(bi, bj, valid == in_range ? -1 : bitmaps.intern(clipped));
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
