/// \file
/// The unified wire-codec registry: every gradient representation that
/// crosses the wire (raw floats, 1-bit quantized, sufficient factors, fp16,
/// int8, top-k sparse) is serialized into a Payload slab by exactly one
/// Codec, and every receiver decodes through the same codec. No
/// scheme-specific encode/decode logic lives in the syncers or the KV store;
/// adding a compression is one codec class registered here.
///
/// Frame layout (in 4-byte float words; integers are bit-cast into words
/// with memcpy, never read as floats):
///   raw float           [payload floats...]           (offset rides in the
///                                                      enclosing WireChunk)
///   1-bit               [rows][cols][bias_len]
///                       [sign words: ceil(rows*cols/32)]
///                       [positive levels: cols][negative levels: cols]
///                       [bias: bias_len]
///   sufficient factor   [m][n][k][bias_len]
///                       [u: m*k][v: n*k][bias: bias_len]
///   fp16                [n][bias_len]
///                       [halves: ceil(n/2), two binary16 per word, low first]
///                       [bias: bias_len]
///   int8                [n][bias_len]
///                       [scales: ceil(n/256), one fp32 per chunk]
///                       [packed: ceil(n/4), four int8 per word, low first]
///                       [bias: bias_len]
///   top-k               [n][k][bias_len]
///                       [indices: k, uint32, strictly increasing, < n]
///                       [values: k][bias: bias_len]
///
/// Every frame expands through one entry point, Codec::Expand: it validates
/// the frame (Codec::Inspect, which returns Status on truncated or corrupt
/// input, so a malformed frame never crashes a server) and streams the dense
/// values, then the bias trailer, to a caller's sink. fp16, int8 and top-k
/// stage at most a fixed 1024-element window on the stack per piece, in both
/// directions, so neither decode nor encode holds a frame-sized buffer; a raw
/// frame is one piece aliasing the slab, and 1-bit and sufficient factors
/// expand their weight whole. Decode arithmetic is bitwise
/// identical to the historical in-line paths (OneBitQuantizer::Decode,
/// ReconstructGradient), which the s=0 BSP trajectory tests rely on.
#ifndef POSEIDON_SRC_TRANSPORT_CODEC_H_
#define POSEIDON_SRC_TRANSPORT_CODEC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/tensor/onebit.h"
#include "src/tensor/sufficient_factor.h"
#include "src/tensor/tensor.h"
#include "src/transport/payload.h"

namespace poseidon {

/// Wire identifier of a codec, carried in every Message header.
enum class WireCodec : uint8_t {
  kRawFloat = 0,
  kOneBit = 1,
  kSufficientFactor = 2,
  kFp16 = 3,
  kInt8 = 4,
  kTopK = 5,
};

const char* WireCodecName(WireCodec id);

/// The per-(layer, clock) seed for the stochastically rounded codecs.
/// Derived from a fixed base through Rng::Split (src/common/rng.h), so every
/// worker — and every rerun — draws the same rounding noise for the same
/// (layer, clock) pair, which is what keeps quantized trajectories bitwise
/// reproducible (docs/COMPRESSION.md).
uint32_t QuantSeed(int layer_index, int64_t clock);

/// One gradient representation's serializer/deserializer. Concrete codecs
/// additionally expose typed encode entry points (their inputs differ:
/// dense slices, quantizer state, factor pairs); the virtual surface is the
/// uniform wire-safety API every receiver and the property tests use.
class Codec {
 public:
  /// What a valid frame expands to: a dense gradient of shape `dims` (1-D
  /// for raw, fp16, int8 and top-k; [rows, cols] for 1-bit and sufficient
  /// factors), then `bias_len` bias floats.
  struct Shape {
    std::vector<int64_t> dims;
    int64_t bias_len = 0;

    /// The dense float count: the product of `dims`.
    int64_t dense() const;
    bool operator==(const Shape& other) const {
      return dims == other.dims && bias_len == other.bias_len;
    }
  };

  /// Receives one expanded piece: `len` floats at `data` that belong at
  /// float `offset` of the frame's expansion (dense values first, the bias
  /// trailer from offset Shape::dense()). `data` is valid only during the
  /// call.
  using Sink = std::function<void(int64_t offset, const float* data, int64_t len)>;

  virtual ~Codec() = default;

  virtual WireCodec id() const = 0;
  virtual const char* name() const = 0;

  /// Validates framing without decoding: the frame's shape, or
  /// InvalidArgument / OutOfRange on malformed or truncated input.
  virtual StatusOr<Shape> Inspect(const PayloadView& frame) const = 0;

  /// Validates the frame, then streams its expansion to `sink` in ascending
  /// offset order: the dense values from offset 0, then the bias trailer
  /// from offset Shape::dense(). No piece straddles the two. On a malformed
  /// frame returns its Status before calling `sink`.
  virtual Status Expand(const PayloadView& frame, const Sink& sink) const = 0;

  /// The dense float count the frame expands to (excluding any bias
  /// trailer), or the Inspect error.
  StatusOr<int64_t> Validate(const PayloadView& frame) const;

  /// Decodes the frame into a dense gradient tensor (shape from the frame;
  /// raw frames decode 1-D) and, when `bias` is non-null, the bias trailer
  /// (empty when the frame carries none). Returns Status instead of
  /// crashing on bad input.
  Status Decode(const PayloadView& frame, Tensor* dense, std::vector<float>* bias) const;
};

/// Identity codec: a frame is the floats themselves.
class RawFloatCodec : public Codec {
 public:
  WireCodec id() const override { return WireCodec::kRawFloat; }
  const char* name() const override { return "raw_float"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Stages `floats` floats into a fresh slab (the one unavoidable copy when
  /// the source is not already slab-resident).
  static Payload Encode(const float* src, int64_t floats);
};

/// CNTK-style 1-bit quantization frames (sign words + per-column levels),
/// with the FC bias gradient riding in the same frame.
class OneBitCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Sign words are
  /// bit-cast; read them through word(), not as floats.
  struct Frame {
    int64_t rows = 0;
    int64_t cols = 0;
    int64_t bias_len = 0;
    PayloadView words;   ///< sign words region (bit-cast floats)
    PayloadView positive_level;
    PayloadView negative_level;
    PayloadView bias;

    /// The i-th packed sign word.
    uint32_t word(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kOneBit; }
  const char* name() const override { return "onebit"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Quantizes `gradient` through `quantizer` (which carries the error
  /// feedback residual) and serializes the encoding plus the bias gradient
  /// into one frame.
  static Payload Encode(const Tensor& gradient, OneBitQuantizer* quantizer,
                        const float* bias, int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);
};

/// Sufficient-factor frames (U, V, bias); reconstruction is exact and
/// bitwise identical to ReconstructGradient on the unserialized factors.
class SufficientFactorCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty).
  struct Frame {
    int64_t m = 0;
    int64_t n = 0;
    int64_t k = 0;
    int64_t bias_len = 0;
    PayloadView u;  ///< [m, k] row-major
    PayloadView v;  ///< [n, k] row-major
    PayloadView bias;
  };

  WireCodec id() const override { return WireCodec::kSufficientFactor; }
  const char* name() const override { return "sufficient_factor"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Serializes a factor pair plus the bias gradient into one frame.
  static Payload Encode(const SufficientFactors& factors, const float* bias,
                        int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);

  /// Overwrites `out` ([m, n]) with U V^T straight from the frame, on the
  /// same simd::GemmTransB kernel as ReconstructGradient, so the result is
  /// bitwise identical.
  static Status DecodeReconstruct(const PayloadView& frame, Tensor* out);
};

/// IEEE binary16 frames with the encoder's reduced range (subnormal halves
/// flush to signed zero, magnitudes >= 2^16 clamp to 65504 — error feedback
/// re-injects both next clock). Two encode modes: stochastic rounding with a
/// carried residual for the gradient-push direction, and round-to-nearest
/// (stateless) for the parameter-reply direction.
class Fp16Codec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Halves are
  /// bit-cast two to a word; read them through half(), not as floats.
  struct Frame {
    int64_t n = 0;
    int64_t bias_len = 0;
    PayloadView halves;  ///< ceil(n/2) words (bit-cast floats)
    PayloadView bias;

    /// The i-th packed binary16 value, i in [0, n).
    uint16_t half(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kFp16; }
  const char* name() const override { return "fp16"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Stochastically rounds `quant` (the gradient slice with the error
  /// residual already added, n floats) into one frame. The rounding noise is
  /// a pure function of (seed, base_index + i) — pass the slice's flat layer
  /// offset as `base_index` so sharding never changes the bits. When
  /// `residual` is non-null it is overwritten with quant - decode(frame),
  /// the error-feedback carry.
  static Payload EncodeSr(const float* quant, int64_t n, uint32_t seed,
                          int64_t base_index, float* residual, const float* bias,
                          int64_t bias_len);

  /// Round-to-nearest-even encode for the stateless reply direction.
  static Payload EncodeRn(const float* src, int64_t n, const float* bias,
                          int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);
};

/// int8 frames with one fp32 scale per 256-element chunk
/// (simd::kInt8ChunkSize) and deterministic stochastic rounding. A chunk
/// whose max|x| is zero or non-finite gets scale 0 and decodes to zeros —
/// the residual re-injects the content next clock.
class Int8Codec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Packed bytes are
  /// bit-cast four to a word; read them through Expand.
  struct Frame {
    int64_t n = 0;
    int64_t bias_len = 0;
    PayloadView scales;  ///< ceil(n/256) per-chunk scales
    PayloadView packed;  ///< ceil(n/4) words (bit-cast floats)
    PayloadView bias;
  };

  WireCodec id() const override { return WireCodec::kInt8; }
  const char* name() const override { return "int8"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Stochastically rounds `quant` (gradient + residual, n floats) into one
  /// frame; same (seed, base_index) contract as Fp16Codec::EncodeSr. When
  /// `residual` is non-null it is overwritten with quant - decode(frame).
  static Payload EncodeSr(const float* quant, int64_t n, uint32_t seed,
                          int64_t base_index, float* residual, const float* bias,
                          int64_t bias_len);

  /// Validated zero-copy access to a frame's regions.
  static StatusOr<Frame> Parse(const PayloadView& frame);
};

/// Top-k sparse frames: the k largest-magnitude elements as (index, value)
/// pairs, values sent exact. Selection is deterministic — threshold from the
/// k-th largest magnitude, ties broken in index order — and the residual
/// keeps everything that was not sent, so every coordinate eventually
/// escapes (error feedback).
class TopKCodec : public Codec {
 public:
  /// Parsed frame: spans into the slab (bias may be empty). Indices are
  /// bit-cast uint32, validated strictly increasing and < n; read them
  /// through index(), not as floats.
  struct Frame {
    int64_t n = 0;
    int64_t k = 0;
    int64_t bias_len = 0;
    PayloadView indices;  ///< k words (bit-cast floats)
    PayloadView values;   ///< k floats
    PayloadView bias;

    /// The i-th selected flat index, i in [0, k).
    int64_t index(int64_t i) const;
  };

  WireCodec id() const override { return WireCodec::kTopK; }
  const char* name() const override { return "topk"; }
  StatusOr<Shape> Inspect(const PayloadView& frame) const override;
  Status Expand(const PayloadView& frame, const Sink& sink) const override;

  /// Selects the k largest-magnitude elements of `quant` (gradient +
  /// residual, n floats; 1 <= k <= n) and serializes them exactly. When
  /// `residual` is non-null it is overwritten with quant everywhere except
  /// the selected coordinates, which carry zero residual.
  static Payload Encode(const float* quant, int64_t n, int64_t k, float* residual,
                        const float* bias, int64_t bias_len);

  /// Validated zero-copy access to a frame's regions (including the
  /// strictly-increasing index scan).
  static StatusOr<Frame> Parse(const PayloadView& frame);
};

/// Process-wide codec table: the six built-in codecs (the three paper
/// representations plus the fp16/int8/top-k compressions), fixed at
/// compile time and addressable by id from any Message. Lock-free.
class CodecRegistry {
 public:
  /// The codec for `id`; CHECK-fails on an unknown id (use Find on wire
  /// input paths).
  static const Codec& Get(WireCodec id);
  /// The codec for `id`, or nullptr for an id no codec carries.
  static const Codec* Find(WireCodec id);
  /// Every codec id, ascending.
  static std::vector<WireCodec> Ids();
};

}  // namespace poseidon

#endif  // POSEIDON_SRC_TRANSPORT_CODEC_H_
