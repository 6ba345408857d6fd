#include "src/poseidon/flat_params.h"

#include <algorithm>

#include "src/common/logging.h"

namespace poseidon {

FlatParamView::FlatParamView(std::vector<ParamBlock> blocks) : blocks_(std::move(blocks)) {
  starts_.reserve(blocks_.size());
  for (const ParamBlock& block : blocks_) {
    CHECK_NOTNULL(block.value);
    CHECK_NOTNULL(block.grad);
    CHECK(block.value->SameShape(*block.grad));
    starts_.push_back(total_);
    total_ += block.value->size();
  }
}

template <typename Fn>
void FlatParamView::ForRange(int64_t offset, int64_t len, Fn&& fn) const {
  CHECK_GE(offset, 0);
  CHECK_LE(offset + len, total_);
  int64_t remaining = len;
  int64_t cursor = offset;
  int64_t out_pos = 0;
  for (size_t b = 0; b < blocks_.size() && remaining > 0; ++b) {
    const int64_t block_start = starts_[b];
    const int64_t block_size = blocks_[b].value->size();
    if (cursor >= block_start + block_size) {
      continue;
    }
    const int64_t intra = cursor - block_start;
    const int64_t take = std::min(remaining, block_size - intra);
    fn(b, intra, out_pos, take);
    cursor += take;
    out_pos += take;
    remaining -= take;
  }
  CHECK_EQ(remaining, 0);
}

void FlatParamView::GatherGradSlice(int64_t offset, float* out, int64_t len) const {
  ForRange(offset, len, [&](size_t b, int64_t intra, int64_t out_pos, int64_t take) {
    const float* src = blocks_[b].grad->data() + intra;
    std::copy(src, src + take, out + out_pos);
  });
}

void FlatParamView::GatherValueSlice(int64_t offset, float* out, int64_t len) const {
  ForRange(offset, len, [&](size_t b, int64_t intra, int64_t out_pos, int64_t take) {
    const float* src = blocks_[b].value->data() + intra;
    std::copy(src, src + take, out + out_pos);
  });
}

void FlatParamView::ScatterValueSlice(int64_t offset, const float* data, int64_t len) {
  ForRange(offset, len, [&](size_t b, int64_t intra, int64_t out_pos, int64_t take) {
    float* dst = blocks_[b].value->data() + intra;
    std::copy(data + out_pos, data + out_pos + take, dst);
  });
}

}  // namespace poseidon
