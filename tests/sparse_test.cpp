// Unit + property tests for the sparse mask storage formats: BSR with
// full/part classification (paper Fig. 6), row-wise CSR/segments, and the
// FlashMask column-wise baseline format.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/varlen.hpp"
#include "stof/sparse/bsr_mask.hpp"
#include "stof/sparse/flashmask_format.hpp"
#include "stof/sparse/rowwise_mask.hpp"

namespace stof::sparse {
namespace {

using masks::Mask;
using masks::MaskSpec;
using masks::PatternKind;

// ---- BSR: the paper's worked example ---------------------------------------
// Fig. 6 uses an 8x8 mask with BLOCK_M = BLOCK_N = 2 giving a 4x4 block grid.

Mask fig6_like_mask() {
  // Row-block 0: one full block at column-block 0, a part block at 2.
  // Row-block 1: full blocks at 0 and 2 (the paper calls out "column
  // indices of full blocks in the 2-nd row are 0 and 2").
  Mask m(8);
  auto fill_block = [&m](std::int64_t bi, std::int64_t bj) {
    for (std::int64_t r = 0; r < 2; ++r)
      for (std::int64_t c = 0; c < 2; ++c) m.set(bi * 2 + r, bj * 2 + c);
  };
  fill_block(0, 0);
  m.set(0, 4);  // part block (0, 2): single element
  fill_block(1, 0);
  fill_block(1, 2);
  m.set(5, 7);  // part block (2, 3)
  m.set(7, 1);  // part block (3, 0)
  return m;
}

TEST(BsrMask, RowPtrLengthMatchesPaperFormula) {
  const Mask m = fig6_like_mask();
  const BsrMask b = BsrMask::build(m, 2, 2);
  // Paper: len(full_row_ptr) = ceil(seq_len / BLOCK_M) + 1.
  EXPECT_EQ(b.full_row_ptr().size(), 8u / 2 + 1);
  EXPECT_EQ(b.part_row_ptr().size(), 8u / 2 + 1);
  EXPECT_EQ(b.load_row_ptr().size(), 8u / 2 + 1);
}

TEST(BsrMask, ClassifiesFullPartEmpty) {
  const BsrMask b = BsrMask::build(fig6_like_mask(), 2, 2);
  EXPECT_EQ(b.block_kind(0, 0), BlockKind::kFull);
  EXPECT_EQ(b.block_kind(0, 2), BlockKind::kPart);
  EXPECT_EQ(b.block_kind(0, 1), BlockKind::kEmpty);
  EXPECT_EQ(b.block_kind(1, 0), BlockKind::kFull);
  EXPECT_EQ(b.block_kind(1, 2), BlockKind::kFull);
  EXPECT_EQ(b.block_kind(2, 3), BlockKind::kPart);
  EXPECT_EQ(b.block_kind(3, 0), BlockKind::kPart);
  EXPECT_EQ(b.full_count(), 3);
  EXPECT_EQ(b.part_count(), 3);
}

TEST(BsrMask, FullColIdxOfSecondRowIsZeroAndTwo) {
  const BsrMask b = BsrMask::build(fig6_like_mask(), 2, 2);
  const auto& ptr = b.full_row_ptr();
  const auto& idx = b.full_col_idx();
  ASSERT_EQ(ptr[2] - ptr[1], 2);  // two full blocks in block-row 1
  EXPECT_EQ(idx[static_cast<std::size_t>(ptr[1])], 0);
  EXPECT_EQ(idx[static_cast<std::size_t>(ptr[1]) + 1], 2);
}

TEST(BsrMask, LoadArraysAreUnionOfFullAndPart) {
  const BsrMask b = BsrMask::build(fig6_like_mask(), 2, 2);
  for (std::int64_t bi = 0; bi < b.rows(); ++bi) {
    const std::int64_t loads =
        b.load_row_ptr()[static_cast<std::size_t>(bi) + 1] -
        b.load_row_ptr()[static_cast<std::size_t>(bi)];
    const std::int64_t fulls =
        b.full_row_ptr()[static_cast<std::size_t>(bi) + 1] -
        b.full_row_ptr()[static_cast<std::size_t>(bi)];
    const std::int64_t parts =
        b.part_row_ptr()[static_cast<std::size_t>(bi) + 1] -
        b.part_row_ptr()[static_cast<std::size_t>(bi)];
    EXPECT_EQ(loads, fulls + parts) << "block-row " << bi;
  }
}

TEST(BsrMask, PartBitmapsDeduplicated) {
  // A sliding-window band repeats the same few edge bitmaps many times.
  const Mask m = masks::sliding_window(256, 16);
  const BsrMask b = BsrMask::build(m, 16, 16);
  EXPECT_GT(b.part_count(), 10);
  // All interior part blocks share two bitmaps (upper/lower band edge).
  EXPECT_LE(b.unique_part_masks(), 4);
}

TEST(BsrMask, PartBitmapLookupMatchesDense) {
  const Mask m = fig6_like_mask();
  const BsrMask b = BsrMask::build(m, 2, 2);
  const auto& bm = b.part_bitmap(0, 2);
  EXPECT_EQ(bm[0], 1);  // element (0,4) valid
  EXPECT_EQ(bm[1], 0);
  EXPECT_EQ(bm[2], 0);
  EXPECT_EQ(bm[3], 0);
  EXPECT_THROW((void)b.part_bitmap(0, 0), Error);  // full, not part
}

TEST(BsrMask, SparseStorageSmallerThanDense) {
  const Mask m = masks::sliding_window(1024, 32);
  const BsrMask b = BsrMask::build(m, 32, 32);
  EXPECT_LT(b.storage_bytes(), 1024u * 1024u / 8u);
}

TEST(BsrMask, EdgeBlocksWithNonDividingSeqLen) {
  // seq_len 10 with 4x4 blocks: edge blocks cover a 2-wide remainder.
  const Mask m = masks::dense(10);
  const BsrMask b = BsrMask::build(m, 4, 4);
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 3);
  // Every block of a dense mask must be "full", including edge blocks whose
  // in-range elements are all valid.
  EXPECT_EQ(b.full_count(), 9);
  EXPECT_EQ(b.part_count(), 0);
  EXPECT_EQ(b.to_dense(), m);
}

TEST(BsrMask, ValidRatioOfDenseIsOne) {
  const BsrMask b = BsrMask::build(masks::dense(64), 16, 16);
  EXPECT_DOUBLE_EQ(b.valid_ratio(), 1.0);
}

TEST(BsrMask, RejectsBadBlockSizes) {
  EXPECT_THROW(BsrMask::build(masks::dense(8), 0, 2), Error);
  EXPECT_THROW(BsrMask::build(masks::dense(8), 2, -1), Error);
}

// Round-trip property across every pattern and several block shapes.
class BsrRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<PatternKind, std::int64_t, std::int64_t>> {};

TEST_P(BsrRoundTrip, ToDenseReconstructsMask) {
  const auto [kind, bm, bn] = GetParam();
  MaskSpec spec{.kind = kind, .seq_len = 96};
  const Mask m = spec.build();
  const BsrMask b = BsrMask::build(m, bm, bn);
  EXPECT_EQ(b.to_dense(), m);
}

TEST_P(BsrRoundTrip, ValidBlocksCoverAllValidElements) {
  const auto [kind, bm, bn] = GetParam();
  MaskSpec spec{.kind = kind, .seq_len = 96};
  const Mask m = spec.build();
  const BsrMask b = BsrMask::build(m, bm, bn);
  for (std::int64_t i = 0; i < m.seq_len(); ++i) {
    for (std::int64_t j = 0; j < m.seq_len(); ++j) {
      if (m.at(i, j)) {
        EXPECT_NE(b.block_kind(i / bm, j / bn), BlockKind::kEmpty)
            << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsAndBlocks, BsrRoundTrip,
    ::testing::Combine(
        ::testing::Values(PatternKind::kCausal, PatternKind::kSlidingWindow,
                          PatternKind::kDilated, PatternKind::kGlobal,
                          PatternKind::kLongformer, PatternKind::kBigBird),
        ::testing::Values<std::int64_t>(16, 32),
        ::testing::Values<std::int64_t>(16, 32)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

// ---- BSR prefix: the O(blocks) length restriction ---------------------------

/// Every BSR array of `got` equals `want`'s.
void expect_same_bsr(const BsrMask& got, const BsrMask& want) {
  EXPECT_EQ(got.seq_len(), want.seq_len());
  EXPECT_EQ(got.block_m(), want.block_m());
  EXPECT_EQ(got.block_n(), want.block_n());
  EXPECT_EQ(got.full_row_ptr(), want.full_row_ptr());
  EXPECT_EQ(got.full_col_idx(), want.full_col_idx());
  EXPECT_EQ(got.part_row_ptr(), want.part_row_ptr());
  EXPECT_EQ(got.part_col_idx(), want.part_col_idx());
  EXPECT_EQ(got.part_mask_id(), want.part_mask_id());
  EXPECT_EQ(got.part_masks(), want.part_masks());
  EXPECT_EQ(got.load_row_ptr(), want.load_row_ptr());
  EXPECT_EQ(got.load_col_idx(), want.load_col_idx());
  EXPECT_EQ(got.storage_bytes(), want.storage_bytes());
}

/// Every buildable PatternKind, plus a random element mask standing in for
/// kCustom (arbitrary bitmaps, so clipped bitmaps collide with unclipped
/// ones in the dedup table).
std::vector<Mask> prefix_test_masks(std::int64_t seq) {
  std::vector<Mask> out;
  for (const auto kind :
       {PatternKind::kDense, PatternKind::kCausal, PatternKind::kSlidingWindow,
        PatternKind::kDilated, PatternKind::kGlobal, PatternKind::kRandom,
        PatternKind::kLongformer, PatternKind::kBigBird,
        PatternKind::kStrided}) {
    out.push_back(MaskSpec{.kind = kind, .seq_len = seq}.build());
  }
  Rng rng(static_cast<std::uint64_t>(seq));
  Mask custom(seq);
  for (std::int64_t i = 0; i < seq; ++i) {
    for (std::int64_t j = 0; j < seq; ++j) {
      if (rng.bernoulli(0.3)) custom.set(i, j);
    }
  }
  out.push_back(std::move(custom));
  return out;
}

/// row_cols(i) appends exactly row i's set bits of `dense`, ascending.
void expect_row_cols_match(const BsrMask& b, const Mask& dense) {
  for (std::int64_t i = 0; i < dense.seq_len(); ++i) {
    std::vector<std::int32_t> cols{-7};  // appended to, never cleared
    b.row_cols(i, cols);
    std::vector<std::int32_t> want{-7};
    for (std::int64_t j = 0; j < dense.seq_len(); ++j) {
      if (dense.at(i, j)) want.push_back(static_cast<std::int32_t>(j));
    }
    ASSERT_EQ(cols, want) << "row " << i;
  }
  std::vector<std::int32_t> cols;
  EXPECT_THROW(b.row_cols(-1, cols), Error);
  EXPECT_THROW(b.row_cols(dense.seq_len(), cols), Error);
}

TEST(BsrMask, PrefixAndRowColsMatchTheDenseMask) {
  const std::pair<std::int64_t, std::int64_t> blocks[] = {
      {16, 16}, {32, 16}, {16, 64}};
  std::int64_t cases = 0;
  for (const std::int64_t seq : {37, 64, 200}) {
    for (const Mask& raw : prefix_test_masks(seq)) {
      for (const Mask& base : {raw, raw & masks::causal(seq)}) {
        for (const auto& [bm, bn] : blocks) {
          const BsrMask full = BsrMask::build(base, bm, bn);
          {
            SCOPED_TRACE(::testing::Message() << "row_cols seq=" << seq
                                              << " block=" << bm << "x" << bn);
            expect_row_cols_match(full, full.to_dense());
          }
          for (std::int64_t len = 0; len <= seq; ++len) {
            SCOPED_TRACE(::testing::Message()
                         << "seq=" << seq << " block=" << bm << "x" << bn
                         << " len=" << len);
            expect_same_bsr(
                full.prefix(len),
                BsrMask::build(mha::effective_mask(base, len), bm, bn));
            ++cases;
          }
          EXPECT_THROW((void)full.prefix(-1), Error);
          EXPECT_THROW((void)full.prefix(seq + 1), Error);
          if (HasFailure()) return;
        }
      }
    }
  }
  EXPECT_EQ(cases, 10 * 2 * 3 * (38 + 65 + 201));
}

// ---- BSR build: row-span classification against the per-element oracle ----

/// The CSR arrays and bitmaps of a BSR, as build() computed them before it
/// read row spans: one bounds-checked Mask::at per block element, and part
/// bitmaps deduplicated through a map keyed by string copies.
struct ReferenceBsr {
  std::vector<std::int64_t> full_row_ptr, part_row_ptr, load_row_ptr;
  std::vector<std::int32_t> full_col_idx, part_col_idx, part_mask_id,
      load_col_idx;
  std::vector<std::vector<std::uint8_t>> part_masks;
};

ReferenceBsr reference_build(const Mask& mask, std::int64_t block_m,
                             std::int64_t block_n) {
  const std::int64_t seq = mask.seq_len();
  const std::int64_t brows = (seq + block_m - 1) / block_m;
  const std::int64_t bcols = (seq + block_n - 1) / block_n;
  ReferenceBsr out;
  out.full_row_ptr.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.part_row_ptr.assign(static_cast<std::size_t>(brows) + 1, 0);
  out.load_row_ptr.assign(static_cast<std::size_t>(brows) + 1, 0);
  std::map<std::string, std::int32_t> bitmap_ids;
  std::vector<std::uint8_t> bitmap(
      static_cast<std::size_t>(block_m * block_n));
  for (std::int64_t bi = 0; bi < brows; ++bi) {
    const auto row = static_cast<std::size_t>(bi) + 1;
    for (std::int64_t bj = 0; bj < bcols; ++bj) {
      std::int64_t valid = 0;
      std::int64_t in_range = 0;
      for (std::int64_t r = 0; r < block_m; ++r) {
        for (std::int64_t c = 0; c < block_n; ++c) {
          const std::int64_t i = bi * block_m + r;
          const std::int64_t j = bj * block_n + c;
          std::uint8_t v = 0;
          if (i < seq && j < seq) {
            ++in_range;
            v = mask.at(i, j) ? 1 : 0;
          }
          bitmap[static_cast<std::size_t>(r * block_n + c)] = v;
          valid += v;
        }
      }
      if (valid == 0) continue;
      out.load_col_idx.push_back(static_cast<std::int32_t>(bj));
      ++out.load_row_ptr[row];
      if (valid == in_range) {
        out.full_col_idx.push_back(static_cast<std::int32_t>(bj));
        ++out.full_row_ptr[row];
        continue;
      }
      const std::string key(reinterpret_cast<const char*>(bitmap.data()),
                            bitmap.size());
      auto [it, inserted] = bitmap_ids.try_emplace(
          key, static_cast<std::int32_t>(out.part_masks.size()));
      if (inserted) out.part_masks.push_back(bitmap);
      out.part_col_idx.push_back(static_cast<std::int32_t>(bj));
      out.part_mask_id.push_back(it->second);
      ++out.part_row_ptr[row];
    }
  }
  for (std::size_t i = 1; i < out.full_row_ptr.size(); ++i) {
    out.full_row_ptr[i] += out.full_row_ptr[i - 1];
    out.part_row_ptr[i] += out.part_row_ptr[i - 1];
    out.load_row_ptr[i] += out.load_row_ptr[i - 1];
  }
  return out;
}

TEST(BsrMask, BuildMatchesThePerElementOracle) {
  std::int64_t cases = 0;
  for (const std::int64_t seq : {1, 15, 200, 257, 1000}) {
    // Every PatternKind MaskSpec builds, plus seeded element masks at three
    // densities standing in for kCustom.
    std::vector<Mask> raws;
    for (const auto kind :
         {PatternKind::kDense, PatternKind::kCausal,
          PatternKind::kSlidingWindow, PatternKind::kDilated,
          PatternKind::kGlobal, PatternKind::kRandom, PatternKind::kLongformer,
          PatternKind::kBigBird, PatternKind::kStrided}) {
      raws.push_back(MaskSpec{.kind = kind, .seq_len = seq}.build());
    }
    for (const double density : {0.1, 0.5, 0.9}) {
      Rng rng(static_cast<std::uint64_t>(seq) * 1000 +
              static_cast<std::uint64_t>(density * 100));
      Mask m(seq);
      for (std::int64_t i = 0; i < seq; ++i) {
        for (std::int64_t j = 0; j < seq; ++j) {
          if (rng.bernoulli(density)) m.set(i, j);
        }
      }
      raws.push_back(std::move(m));
    }
    for (std::size_t k = 0; k < raws.size(); ++k) {
      for (const bool causal : {false, true}) {
        const Mask base = causal ? raws[k] & masks::causal(seq) : raws[k];
        for (const std::int64_t bm : {16, 32, 64, 128}) {
          for (const std::int64_t bn : {16, 32, 64, 128}) {
            SCOPED_TRACE(::testing::Message()
                         << "seq=" << seq << " mask=" << k
                         << " causal=" << causal << " block=" << bm << "x"
                         << bn);
            const BsrMask got = BsrMask::build(base, bm, bn);
            const ReferenceBsr want = reference_build(base, bm, bn);
            EXPECT_EQ(got.full_row_ptr(), want.full_row_ptr);
            EXPECT_EQ(got.full_col_idx(), want.full_col_idx);
            EXPECT_EQ(got.part_row_ptr(), want.part_row_ptr);
            EXPECT_EQ(got.part_col_idx(), want.part_col_idx);
            EXPECT_EQ(got.part_mask_id(), want.part_mask_id);
            EXPECT_EQ(got.part_masks(), want.part_masks);
            EXPECT_EQ(got.load_row_ptr(), want.load_row_ptr);
            EXPECT_EQ(got.load_col_idx(), want.load_col_idx);
            if (HasFailure()) return;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 5 * 12 * 2 * 16);
}

// ---- Row-wise format --------------------------------------------------------

TEST(RowwiseMask, CsrMatchesDense) {
  const Mask m = masks::longformer(64, 4, 4);
  const RowwiseMask r = RowwiseMask::build(m);
  EXPECT_EQ(r.to_dense(), m);
  EXPECT_EQ(r.valid_count(), m.valid_count());
}

TEST(RowwiseMask, SegmentsMatchContiguity) {
  const Mask sw = masks::sliding_window(64, 4);
  const RowwiseMask r = RowwiseMask::build(sw);
  // Sliding window rows are single contiguous runs.
  EXPECT_DOUBLE_EQ(r.mean_segments_per_row(), 1.0);

  const Mask d = masks::dilated(64, 4, 1);
  const RowwiseMask rd = RowwiseMask::build(d);
  // Dilated rows are punched: many segments per row.
  EXPECT_GT(rd.mean_segments_per_row(), 2.0);
}

TEST(RowwiseMask, RowNnzAndMax) {
  const Mask m = masks::global(32, 2);
  const RowwiseMask r = RowwiseMask::build(m);
  EXPECT_EQ(r.row_nnz(0), 32);  // global row
  EXPECT_EQ(r.row_nnz(10), 2);  // only global columns
  EXPECT_EQ(r.max_row_nnz(), 32);
}

TEST(RowwiseMask, EmptyMask) {
  const RowwiseMask r = RowwiseMask::build(Mask(16));
  EXPECT_EQ(r.valid_count(), 0);
  EXPECT_EQ(r.max_row_nnz(), 0);
  EXPECT_DOUBLE_EQ(r.mean_segments_per_row(), 0.0);
}

class RowwiseRoundTrip : public ::testing::TestWithParam<PatternKind> {};

TEST_P(RowwiseRoundTrip, ToDenseReconstructsMask) {
  MaskSpec spec{.kind = GetParam(), .seq_len = 80};
  const Mask m = spec.build();
  EXPECT_EQ(RowwiseMask::build(m).to_dense(), m);
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, RowwiseRoundTrip,
    ::testing::Values(PatternKind::kDense, PatternKind::kCausal,
                      PatternKind::kSlidingWindow, PatternKind::kDilated,
                      PatternKind::kGlobal, PatternKind::kRandom,
                      PatternKind::kLongformer, PatternKind::kBigBird,
                      PatternKind::kStrided),
    [](const auto& info) { return to_string(info.param); });

// ---- FlashMask column-wise format ------------------------------------------

TEST(FlashmaskFormat, RepresentsCausal) {
  const Mask m = masks::causal(64);
  ASSERT_TRUE(FlashmaskFormat::representable(m));
  EXPECT_EQ(FlashmaskFormat::build(m).to_dense(), m);
}

TEST(FlashmaskFormat, RepresentsSlidingWindow) {
  const Mask m = masks::sliding_window(64, 8);
  ASSERT_TRUE(FlashmaskFormat::representable(m));
  EXPECT_EQ(FlashmaskFormat::build(m).to_dense(), m);
}

TEST(FlashmaskFormat, CannotRepresentDilated) {
  // Paper §3.1: "the discrete distribution of valid elements involves more
  // skipped regions that cannot be represented".
  EXPECT_FALSE(FlashmaskFormat::representable(masks::dilated(64, 4, 1)));
}

TEST(FlashmaskFormat, CannotRepresentBigbird) {
  EXPECT_FALSE(
      FlashmaskFormat::representable(masks::bigbird(128, 8, 8, 0.15, 16, 3)));
}

TEST(FlashmaskFormat, BuildRejectsUnrepresentable) {
  EXPECT_THROW(FlashmaskFormat::build(masks::dilated(64, 4, 1)), Error);
}

TEST(FlashmaskFormat, StorageIsFourArrays) {
  const Mask m = masks::causal(128);
  const FlashmaskFormat f = FlashmaskFormat::build(m);
  EXPECT_EQ(f.storage_bytes(), 4u * 128u * sizeof(std::int32_t));
}

TEST(FlashmaskFormat, DenseMaskRepresentable) {
  const Mask m = masks::dense(32);
  ASSERT_TRUE(FlashmaskFormat::representable(m));
  EXPECT_EQ(FlashmaskFormat::build(m).to_dense(), m);
}

}  // namespace
}  // namespace stof::sparse
