/// \file
/// Flattened view over a layer's parameter blocks (weight, bias, ...), giving
/// the KV machinery a single contiguous float address space per layer. Layout
/// is the blocks in declaration order, concatenated.
#ifndef POSEIDON_SRC_POSEIDON_FLAT_PARAMS_H_
#define POSEIDON_SRC_POSEIDON_FLAT_PARAMS_H_

#include <cstdint>
#include <vector>

#include "src/nn/layer.h"

namespace poseidon {

class FlatParamView {
 public:
  explicit FlatParamView(std::vector<ParamBlock> blocks);

  int64_t size() const { return total_; }

  /// Copies gradients [offset, offset+len) into `out` (used to stage
  /// straight into a wire Payload slab).
  void GatherGradSlice(int64_t offset, float* out, int64_t len) const;
  /// Copies values [offset, offset+len) into `out`.
  void GatherValueSlice(int64_t offset, float* out, int64_t len) const;
  /// Writes [data, data+len) into values at `offset` (used to apply straight
  /// from a wire PayloadView).
  void ScatterValueSlice(int64_t offset, const float* data, int64_t len);

 private:
  /// Maps a flat range to (block, intra-block offset) pieces and applies fn.
  template <typename Fn>
  void ForRange(int64_t offset, int64_t len, Fn&& fn) const;

  std::vector<ParamBlock> blocks_;
  std::vector<int64_t> starts_;  // flat start of each block
  int64_t total_ = 0;
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_POSEIDON_FLAT_PARAMS_H_
