// Architectural descriptors for the neural networks in the evaluation
// (Table 3). A ModelSpec records, per layer, what Poseidon's planner needs
// (layer type and FC shape, for HybComm's per-layer decision) and what the
// cluster simulator needs (parameter and FLOP counts, for wire bytes and
// compute durations). Layers are ordered bottom (input side) to top (loss
// side); the backward pass visits them top to bottom.
#ifndef POSEIDON_SRC_MODELS_MODEL_SPEC_H_
#define POSEIDON_SRC_MODELS_MODEL_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace poseidon {

enum class LayerType {
  kConv,  // convolution (or an aggregated conv block); gradient indecomposable
  kFC,    // fully connected: M x N matrix, rank-K gradient over a K-batch
};

const char* LayerTypeName(LayerType type);

struct LayerSpec {
  std::string name;
  LayerType type = LayerType::kConv;
  // Trainable parameter count (weights + biases).
  int64_t params = 0;
  // For kFC: weight matrix dimensions (M = output width, N = input height, in
  // the paper's notation an M x N layer).
  int64_t fc_m = 0;
  int64_t fc_n = 0;
  // Forward FLOPs per input sample; the backward pass is modeled as 2x.
  double fwd_flops = 0.0;

  double bwd_flops() const { return 2.0 * fwd_flops; }
  int64_t param_bytes() const { return params * 4; }
};

struct ModelSpec {
  std::string name;
  std::string dataset;
  int default_batch = 32;
  std::vector<LayerSpec> layers;

  int num_layers() const { return static_cast<int>(layers.size()); }
  int64_t total_params() const;
  double total_fwd_flops() const;
  // Fraction of parameters living in FC layers (VGG19-22K: ~0.91).
  double fc_param_fraction() const;
  std::string Summary() const;
};

// Helpers used by the zoo to derive realistic per-layer counts.
// A k x k convolution, in_c -> out_c channels, producing out_hw x out_hw maps.
LayerSpec ConvLayer(std::string name, int64_t in_c, int64_t out_c, int64_t kernel,
                    int64_t out_hw);
// Rectangular kernel (kh x kw), for Inception-style factorized convolutions.
LayerSpec ConvLayerRect(std::string name, int64_t in_c, int64_t out_c, int64_t kh, int64_t kw,
                        int64_t out_hw);
// A fully connected layer with an M x N weight matrix (paper orientation:
// output dim M, input dim N).
LayerSpec FcLayer(std::string name, int64_t m, int64_t n);

}  // namespace poseidon

#endif  // POSEIDON_SRC_MODELS_MODEL_SPEC_H_
