// Autoregressive generation with a GPT decoder under sliding-window
// attention — the decoder-side workload of the paper's evaluation.
//
//   $ ./example_autoregressive_generation
//
// Simulates a prefill pass followed by a short decode loop.  At every step
// the causal sliding-window mask grows by one row; STOF replans when the
// sequence length crosses a power of two (the kernel-selection boundary of
// Eq. 1), demonstrating the row-wise -> block-wise transition live.
#include <cstdio>

#include "stof/core/rng.hpp"
#include "stof/masks/mask.hpp"
#include "stof/mha/decode.hpp"
#include "stof/mha/unified.hpp"
#include "stof/models/e2e.hpp"
#include "stof/sparse/bsr_mask.hpp"

using namespace stof;

namespace {

// Causal sliding-window mask with the paper's sqrt(seq_len) window: token i
// attends to the most recent sqrt(seq_len) tokens.
masks::Mask causal_window(std::int64_t seq_len) {
  const auto band = masks::MaskSpec{
      .kind = masks::PatternKind::kSlidingWindow, .seq_len = seq_len};
  return masks::causal(seq_len) & band.build();
}

}  // namespace

int main() {
  const auto model = models::gpt();
  const auto device = gpusim::rtx4090();

  // --- Prefill: the full prompt in one pass -------------------------------
  const std::int64_t prompt_len = 512;
  std::printf(
      "prefill: %s, %lld-token prompt, causal sqrt-window mask on %s\n",
      model.name.c_str(), static_cast<long long>(prompt_len),
      device.name.c_str());

  tuner::TuningOptions opt;
  opt.stage1_max_evals = 60;
  opt.stage2_iterations = 2;
  const auto prefill =
      models::simulate_e2e(baselines::Method::kStof, model, 1, prompt_len,
                           masks::PatternKind::kSlidingWindow, device, opt);
  const auto prefill_native =
      models::simulate_e2e(baselines::Method::kPytorchNative, model, 1,
                           prompt_len, masks::PatternKind::kSlidingWindow,
                           device);
  std::printf("  STOF %.0f us vs PyTorch-Native %.0f us (%.2fx)\n\n",
              prefill.time_us, prefill_native.time_us,
              prefill_native.time_us / prefill.time_us);

  // --- Decode: per-token attention over the growing context ----------------
  std::printf("decode steps (MHA only, batch 1, %lld heads):\n",
              static_cast<long long>(model.heads));
  std::printf("%8s %12s %14s %12s\n", "context", "kernel", "params",
              "time (us)");
  for (const std::int64_t ctx : {128, 256, 512, 1024, 2048}) {
    const mha::MhaDims dims{1, model.heads, ctx, model.head_size()};
    mha::UnifiedMha attention(dims, causal_window(ctx), device);
    gpusim::Stream stream(device);
    const double t = attention.simulate(stream);
    const auto& choice = attention.plan().choice;
    char params[64];
    if (choice.kind == mha::KernelKind::kRowwise) {
      std::snprintf(params, sizeof params, "%d warps",
                    choice.rowwise.warps_per_block);
    } else {
      std::snprintf(params, sizeof params, "%dx%d w%d",
                    choice.blockwise.block_m, choice.blockwise.block_n,
                    choice.blockwise.num_warps);
    }
    std::printf("%8lld %12s %14s %12.2f\n", static_cast<long long>(ctx),
                choice.kind == mha::KernelKind::kRowwise ? "row-wise"
                                                         : "block-wise",
                params, t);
  }
  // Contrast: the denser bidirectional prefill mask at the same length.
  {
    const mha::MhaDims dims{1, model.heads, 2048, model.head_size()};
    const auto bidi = masks::MaskSpec{
        .kind = masks::PatternKind::kSlidingWindow, .seq_len = 2048};
    mha::UnifiedMha attention(dims, bidi.build(), device);
    gpusim::Stream stream(device);
    const double t = attention.simulate(stream);
    std::printf("%8s %12s %14s %12.2f   (bidirectional prefill mask)\n",
                "2048",
                attention.plan().choice.kind == mha::KernelKind::kRowwise
                    ? "row-wise"
                    : "block-wise",
                "", t);
  }

  std::printf(
      "\nEq. 1 keeps the row-wise kernel for the concentrated causal decode\n"
      "masks (few valid blocks per row, high locality) and switches to the\n"
      "block-wise kernel for the denser bidirectional prefill mask.\n");

  // --- KV-cache decode kernel: one token against the cached context --------
  std::printf(
      "\nsingle-token KV-cache decode kernel (mha::decode_attention_paged):\n");
  std::printf("%8s %10s %12s\n", "context", "attended", "time (us)");
  for (const std::int64_t ctx : {512, 1024, 2048, 4096}) {
    // The new token is the mask's last row; its attended cache positions
    // are that row's valid columns.
    const auto bsr = sparse::BsrMask::build(causal_window(ctx), 16, 16);
    std::vector<std::int32_t> cols;
    bsr.row_cols(ctx - 1, cols);
    const std::int64_t attended[] = {static_cast<std::int64_t>(cols.size())};
    const std::int64_t chunks[] = {mha::decode_chunks(cols, 16)};
    const std::int64_t rows[] = {1};
    const double t = gpusim::estimate_time_us(
        mha::decode_verify_cost(model.heads, model.head_size(), attended,
                                chunks, rows, device),
        device);
    std::printf("%8lld %10zu %12.2f\n", static_cast<long long>(ctx),
                cols.size(), t);
  }
  std::printf("Per-step decode stays launch-bound: the sparse mask keeps the\n"
              "attended set near-constant while the cache grows.\n");
  return 0;
}
