#include "stof/serve/output_digest.hpp"

#include <algorithm>

#include "stof/core/checksum.hpp"

namespace stof::serve {
namespace {

std::uint64_t template_key(const Request& r, std::int64_t tokens) {
  const int mk = static_cast<int>(r.mask_kind);
  std::uint64_t h = fnv1a64(&r.template_seed, sizeof(r.template_seed));
  h = fnv1a64(&tokens, sizeof(tokens), h);
  return fnv1a64(&mk, sizeof(mk), h);
}

}  // namespace

void DigestFolder::fold(
    const OutputRows& rows, const ModelRuntime* head,
    const std::function<DigestChain(SessionId)>& chain_of) {
  if (rows.size() == 0) return;
  TensorH t;
  if (head != nullptr) {
    STOF_CHECK(head->hidden() == rows.width,
               "the model head needs full-width output rows");
    t = TensorH(Shape{static_cast<std::int64_t>(rows.size()), rows.width});
    std::copy(rows.data.begin(), rows.data.end(), t.data().begin());
    head->transform_rows(t);
  }
  const auto w = static_cast<std::size_t>(rows.width);
  DigestChain chain;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto [id, pos] = rows.keys[r];
    if (r == 0 || id != rows.keys[r - 1].id) chain = chain_of(id);
    const Request& req = *chain.request;
    if (*chain.folded == 0 && pos > 0) {
      // A prefix adopter's first row: [0, pos) was never computed here;
      // `pos` is a template boundary an earlier session folded.
      STOF_CHECK(pos <= req.template_len,
                 "a first fold past 0 must sit inside an adopted template");
      const auto it = template_chain_.find(template_key(req, pos));
      STOF_CHECK(it != template_chain_.end(),
                 "adopted prefix must have a recorded chain value");
      *chain.digest = it->second;
      *chain.folded = pos;
    }
    STOF_CHECK(pos == *chain.folded,
               "each output position folds exactly once, in order");
    const auto row =
        head != nullptr ? t.data().subspan(r * w, w) : rows.row(r);
    *chain.digest = fnv1a64(row.data(), row.size_bytes(), *chain.digest);
    *chain.folded = pos + 1;
    if (pos < req.template_len &&
        ((pos + 1) % block_tokens_ == 0 || pos + 1 == req.template_len)) {
      template_chain_[template_key(req, pos + 1)] = *chain.digest;
    }
  }
}

}  // namespace stof::serve
