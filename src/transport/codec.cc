#include "src/transport/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/simd/quant.h"
#include "src/simd/vec.h"
#include "src/stats/trace.h"

namespace poseidon {
namespace {

// Per-dimension sanity bound for wire input: any frame claiming a single
// dimension beyond this is corrupt, not large (the biggest paper layer
// dimension is 25088). Keeping every dimension below 2^27 also makes all
// downstream size products overflow-free in int64.
constexpr int64_t kMaxWireDim = int64_t{1} << 27;

// Elements fp16, int8 and top-k stage per window, encoding and decoding
// alike. A multiple of the int8 chunk (so a window starts on a whole scale)
// and of four (so it starts on a whole packed fp16 or int8 word).
constexpr int64_t kWindow = 1024;
static_assert(kWindow % simd::kInt8ChunkSize == 0 && kWindow % 4 == 0,
              "windows must start on whole scales and whole packed words");

// Integers are carried in float words bit-cast with memcpy; the words are
// never read as floats, so the bit patterns (which may be NaNs) are inert.
void StoreWord(float* dst, uint32_t value) { std::memcpy(dst, &value, sizeof(value)); }

uint32_t LoadWord(const float* src) {
  uint32_t value;
  std::memcpy(&value, src, sizeof(value));
  return value;
}

Status BadDim(const char* codec, int64_t value) {
  return InvalidArgumentError(std::string(codec) + " frame has invalid dimension " +
                              std::to_string(value));
}

// The one header reader: the frame's first N words as dimensions, each a
// non-negative int32 no larger than kMaxWireDim.
template <size_t N>
StatusOr<std::array<int64_t, N>> ReadHeader(const char* codec, const PayloadView& frame) {
  if (frame.size() < static_cast<int64_t>(N)) {
    return OutOfRangeError(std::string(codec) + " frame truncated: need " +
                           std::to_string(N) + " header words, have " +
                           std::to_string(frame.size()));
  }
  std::array<int64_t, N> dims;
  for (size_t i = 0; i < N; ++i) {
    dims[i] = static_cast<int32_t>(LoadWord(frame.data() + i));
    if (dims[i] < 0 || dims[i] > kMaxWireDim) {
      return BadDim(codec, dims[i]);
    }
  }
  return dims;
}

// The one region slicer: checks that `frame` is exactly `header` words plus
// the regions' lengths, then points each region at its span, in order. The
// running total is bounded, so a hostile header is rejected by arithmetic,
// not by an argument about bounds established elsewhere.
Status SliceRegions(const char* codec, const PayloadView& frame, int64_t header,
                    std::initializer_list<std::pair<int64_t, PayloadView*>> regions) {
  int64_t want = header;
  for (const auto& region : regions) {
    if (region.first < 0 || region.first > (int64_t{1} << 62) - want) {
      return InvalidArgumentError(std::string(codec) + " frame size overflows");
    }
    want += region.first;
  }
  if (frame.size() != want) {
    return want > frame.size()
               ? OutOfRangeError(std::string(codec) + " frame truncated: need " +
                                 std::to_string(want) + " words, have " +
                                 std::to_string(frame.size()))
               : InvalidArgumentError(std::string(codec) + " frame has " +
                                      std::to_string(frame.size()) + " words, expected " +
                                      std::to_string(want));
  }
  int64_t cursor = header;
  for (const auto& [length, view] : regions) {
    *view = frame.Sub(cursor, length);
    cursor += length;
  }
  return Status::Ok();
}

// Allocates a zero-filled frame (so padding words need no explicit zeroing
// and identical inputs serialize to identical bytes), writes the header
// words and the bias trailer after `body` words of regions, and returns the
// body for the encoder to fill.
float* NewFrame(Payload* payload, std::initializer_list<int64_t> header, int64_t body,
                const float* bias, int64_t bias_len) {
  CHECK_GE(bias_len, 0);
  const int64_t header_words = static_cast<int64_t>(header.size());
  *payload = Payload::Allocate(header_words + body + bias_len);
  float* words = payload->data();
  for (int64_t value : header) {
    StoreWord(words++, static_cast<uint32_t>(value));
  }
  if (bias_len > 0) {
    CHECK_NOTNULL(bias);
    std::copy(bias, bias + bias_len, words + body);
  }
  WireCopyStats::Add(body + bias_len);
  return words;
}

// Streams a frame's bias trailer (possibly empty) after `dense` values.
void ExpandBias(const PayloadView& bias, int64_t dense, const Codec::Sink& sink) {
  if (bias.size() > 0) {
    sink(dense, bias.data(), bias.size());
  }
}

}  // namespace

const char* WireCodecName(WireCodec id) {
  switch (id) {
    case WireCodec::kRawFloat:
      return "raw_float";
    case WireCodec::kOneBit:
      return "onebit";
    case WireCodec::kSufficientFactor:
      return "sufficient_factor";
    case WireCodec::kFp16:
      return "fp16";
    case WireCodec::kInt8:
      return "int8";
    case WireCodec::kTopK:
      return "topk";
  }
  return "?";
}

uint32_t QuantSeed(int layer_index, int64_t clock) {
  // A fixed base split per layer then per clock: the same derivation on
  // every worker, every backend, every rerun.
  Rng rng = Rng(UINT64_C(0x9e3779b97f4a7c15))
                .Split(static_cast<uint64_t>(layer_index))
                .Split(static_cast<uint64_t>(clock));
  return static_cast<uint32_t>(rng.Next());
}

// --------------------------------------------------------------------- codec

int64_t Codec::Shape::dense() const {
  int64_t count = 1;
  for (int64_t dim : dims) {
    count *= dim;
  }
  return count;
}

StatusOr<int64_t> Codec::Validate(const PayloadView& frame) const {
  StatusOr<Shape> shape = Inspect(frame);
  if (!shape.ok()) {
    return shape.status();
  }
  return shape->dense();
}

Status Codec::Decode(const PayloadView& frame, Tensor* dense,
                     std::vector<float>* bias) const {
  CHECK_NOTNULL(dense);
  StatusOr<Shape> shape = Inspect(frame);
  if (!shape.ok()) {
    return shape.status();
  }
  const int64_t dense_len = shape->dense();
  *dense = dense_len == 0 ? Tensor() : Tensor(shape->dims);
  if (bias != nullptr) {
    bias->assign(static_cast<size_t>(shape->bias_len), 0.0f);
  }
  return Expand(frame, [&](int64_t offset, const float* data, int64_t len) {
    if (offset < dense_len) {
      std::copy(data, data + len, dense->data() + offset);
    } else if (bias != nullptr) {
      std::copy(data, data + len, bias->data() + (offset - dense_len));
    }
  });
}

// ----------------------------------------------------------------- raw float

StatusOr<Codec::Shape> RawFloatCodec::Inspect(const PayloadView& frame) const {
  if (!frame.valid() && frame.size() != 0) {
    return InvalidArgumentError("raw_float frame is invalid");
  }
  return Shape{{frame.size()}, 0};
}

Status RawFloatCodec::Expand(const PayloadView& frame, const Sink& sink) const {
  StatusOr<Shape> shape = Inspect(frame);
  if (!shape.ok()) {
    return shape.status();
  }
  if (frame.size() > 0) {
    sink(0, frame.data(), frame.size());  // one piece, aliasing the slab
  }
  return Status::Ok();
}

Payload RawFloatCodec::Encode(const float* src, int64_t floats) {
  TraceSpan span("codec.encode.raw", "codec", floats);
  Payload payload = Payload::Allocate(floats);
  if (floats > 0) {
    CHECK_NOTNULL(src);
    std::copy(src, src + floats, payload.data());
    WireCopyStats::Add(floats);
  }
  return payload;
}

// --------------------------------------------------------------------- 1-bit

namespace {
int64_t OneBitSignWords(int64_t rows, int64_t cols) { return (rows * cols + 31) / 32; }
}  // namespace

uint32_t OneBitCodec::Frame::word(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, words.size());
  return LoadWord(words.data() + i);
}

StatusOr<OneBitCodec::Frame> OneBitCodec::Parse(const PayloadView& frame) {
  const StatusOr<std::array<int64_t, 3>> header = ReadHeader<3>("onebit", frame);
  if (!header.ok()) return header.status();
  Frame parsed;
  parsed.rows = (*header)[0];
  parsed.cols = (*header)[1];
  parsed.bias_len = (*header)[2];
  // A tensor dimension of zero is never produced by an encoder; reject it
  // so decode targets always have constructible shapes.
  if (parsed.rows < 1) return BadDim("onebit", parsed.rows);
  if (parsed.cols < 1) return BadDim("onebit", parsed.cols);
  const Status sliced = SliceRegions(
      "onebit", frame, 3,
      {{OneBitSignWords(parsed.rows, parsed.cols), &parsed.words},
       {parsed.cols, &parsed.positive_level},
       {parsed.cols, &parsed.negative_level},
       {parsed.bias_len, &parsed.bias}});
  if (!sliced.ok()) return sliced;
  return parsed;
}

StatusOr<Codec::Shape> OneBitCodec::Inspect(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Shape{{parsed->rows, parsed->cols}, parsed->bias_len};
}

Status OneBitCodec::Expand(const PayloadView& frame, const Sink& sink) const {
  TraceSpan span("codec.decode.onebit", "codec");
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  // The weight expands whole: a row range's sign bits need not start on a
  // word boundary. Stage the packed sign words out of the slab once
  // (compressed size, 1/32 of dense), then reconstruct exactly as
  // OneBitQuantizer::Decode does.
  std::vector<uint32_t> bits(static_cast<size_t>(f.words.size()));
  std::memcpy(bits.data(), f.words.data(), bits.size() * sizeof(uint32_t));
  WireCopyStats::Add(f.words.size());
  std::vector<float> weight(static_cast<size_t>(f.rows * f.cols));
  simd::OneBitDecode(bits.data(), f.positive_level.data(), f.negative_level.data(), f.rows,
                     f.cols, weight.data());
  sink(0, weight.data(), f.rows * f.cols);
  ExpandBias(f.bias, f.rows * f.cols, sink);
  return Status::Ok();
}

Payload OneBitCodec::Encode(const Tensor& gradient, OneBitQuantizer* quantizer,
                            const float* bias, int64_t bias_len) {
  TraceSpan span("codec.encode.onebit", "codec");
  CHECK_NOTNULL(quantizer);
  const OneBitEncoded encoded = quantizer->Encode(gradient);
  const int64_t sign_words = static_cast<int64_t>(encoded.bits.size());
  CHECK_EQ(sign_words, OneBitSignWords(encoded.rows, encoded.cols));
  Payload payload;
  float* words = NewFrame(&payload, {encoded.rows, encoded.cols, bias_len},
                          sign_words + 2 * encoded.cols, bias, bias_len);
  if (sign_words > 0) {
    std::memcpy(words, encoded.bits.data(), static_cast<size_t>(sign_words) * sizeof(uint32_t));
  }
  words += sign_words;
  std::copy(encoded.positive_level.begin(), encoded.positive_level.end(), words);
  std::copy(encoded.negative_level.begin(), encoded.negative_level.end(),
            words + encoded.cols);
  return payload;
}

// --------------------------------------------------------- sufficient factor

StatusOr<SufficientFactorCodec::Frame> SufficientFactorCodec::Parse(
    const PayloadView& frame) {
  const StatusOr<std::array<int64_t, 4>> header =
      ReadHeader<4>("sufficient_factor", frame);
  if (!header.ok()) return header.status();
  Frame parsed;
  parsed.m = (*header)[0];
  parsed.n = (*header)[1];
  parsed.k = (*header)[2];
  parsed.bias_len = (*header)[3];
  if (parsed.m < 1) return BadDim("sufficient_factor", parsed.m);
  if (parsed.n < 1) return BadDim("sufficient_factor", parsed.n);
  if (parsed.k < 1) return BadDim("sufficient_factor", parsed.k);
  const Status sliced =
      SliceRegions("sufficient_factor", frame, 4,
                   {{parsed.m * parsed.k, &parsed.u},
                    {parsed.n * parsed.k, &parsed.v},
                    {parsed.bias_len, &parsed.bias}});
  if (!sliced.ok()) return sliced;
  return parsed;
}

StatusOr<Codec::Shape> SufficientFactorCodec::Inspect(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Shape{{parsed->m, parsed->n}, parsed->bias_len};
}

namespace {
// U V^T on the GemmTransB kernel, reading straight from the slab: bitwise
// identical to ReconstructGradient on unserialized factors.
void Reconstruct(const SufficientFactorCodec::Frame& f, float* out) {
  simd::GemmTransB(f.u.data(), f.v.data(), out, f.m, f.k, f.n);
}
}  // namespace

Status SufficientFactorCodec::DecodeReconstruct(const PayloadView& frame, Tensor* out) {
  TraceSpan span("codec.decode.sf", "codec");
  CHECK_NOTNULL(out);
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  if (out->ndim() != 2 || out->dim(0) != f.m || out->dim(1) != f.n) {
    return InvalidArgumentError("sufficient_factor reconstruction target is " +
                                out->ShapeString() + ", frame is " + std::to_string(f.m) +
                                "x" + std::to_string(f.n));
  }
  Reconstruct(f, out->data());
  return Status::Ok();
}

Status SufficientFactorCodec::Expand(const PayloadView& frame, const Sink& sink) const {
  TraceSpan span("codec.decode.sf", "codec");
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  // The weight expands whole: the GEMM writes the whole product.
  std::vector<float> weight(static_cast<size_t>(f.m * f.n));
  Reconstruct(f, weight.data());
  sink(0, weight.data(), f.m * f.n);
  ExpandBias(f.bias, f.m * f.n, sink);
  return Status::Ok();
}

Payload SufficientFactorCodec::Encode(const SufficientFactors& factors, const float* bias,
                                      int64_t bias_len) {
  TraceSpan span("codec.encode.sf", "codec");
  const int64_t m = factors.rows();
  const int64_t n = factors.cols();
  const int64_t k = factors.rank();
  Payload payload;
  float* words = NewFrame(&payload, {m, n, k, bias_len}, (m + n) * k, bias, bias_len);
  std::copy(factors.u.data(), factors.u.data() + m * k, words);
  std::copy(factors.v.data(), factors.v.data() + n * k, words + m * k);
  return payload;
}

// ---------------------------------------------------------------------- fp16

namespace {
int64_t Fp16HalfWords(int64_t n) { return (n + 1) / 2; }

// residual = quant - decode(frame), computed as quant + (-approx): Scale by
// -1 is an exact sign flip and a + (-b) rounds identically to a - b, so the
// residual is the bitwise error-feedback carry. `residual` holds the decoded
// approximation on entry.
void FinishResidual(const float* quant, int64_t n, float* residual) {
  simd::Scale(residual, -1.0f, n);
  simd::ReduceAdd(residual, quant, n);
}

// Encodes n floats window by window into a fresh fp16 frame: `pack` fills
// one window of halves from (src + off, len, off), which is copied straight
// into the frame's halves region.
template <typename Pack>
Payload Fp16Frame(const float* src, int64_t n, const float* bias, int64_t bias_len,
                  Pack&& pack) {
  CHECK_NOTNULL(src);
  CHECK_GT(n, 0);
  Payload payload;
  char* halves = reinterpret_cast<char*>(
      NewFrame(&payload, {n, bias_len}, Fp16HalfWords(n), bias, bias_len));
  std::array<uint16_t, kWindow> window;
  for (int64_t off = 0; off < n; off += kWindow) {
    const int64_t len = std::min(kWindow, n - off);
    pack(src + off, len, off, window.data());
    std::memcpy(halves + off * sizeof(uint16_t), window.data(),
                static_cast<size_t>(len) * sizeof(uint16_t));
  }
  return payload;
}
}  // namespace

uint16_t Fp16Codec::Frame::half(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, n);
  const uint32_t word = LoadWord(halves.data() + (i >> 1));
  return static_cast<uint16_t>((i & 1) ? word >> 16 : word & 0xFFFFu);
}

StatusOr<Fp16Codec::Frame> Fp16Codec::Parse(const PayloadView& frame) {
  const StatusOr<std::array<int64_t, 2>> header = ReadHeader<2>("fp16", frame);
  if (!header.ok()) return header.status();
  Frame parsed;
  parsed.n = (*header)[0];
  parsed.bias_len = (*header)[1];
  if (parsed.n < 1) return BadDim("fp16", parsed.n);
  const Status sliced = SliceRegions(
      "fp16", frame, 2,
      {{Fp16HalfWords(parsed.n), &parsed.halves}, {parsed.bias_len, &parsed.bias}});
  if (!sliced.ok()) return sliced;
  return parsed;
}

StatusOr<Codec::Shape> Fp16Codec::Inspect(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Shape{{parsed->n}, parsed->bias_len};
}

Status Fp16Codec::Expand(const PayloadView& frame, const Sink& sink) const {
  TraceSpan span("codec.decode.fp16", "codec");
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  // Copy one window of packed halves out of the slab at a time, then unpack
  // it with the exact formula.
  const char* halves = reinterpret_cast<const char*>(f.halves.data());
  std::array<uint16_t, kWindow> packed;
  std::array<float, kWindow> values;
  for (int64_t off = 0; off < f.n; off += kWindow) {
    const int64_t len = std::min(kWindow, f.n - off);
    std::memcpy(packed.data(), halves + off * sizeof(uint16_t),
                static_cast<size_t>(len) * sizeof(uint16_t));
    simd::Fp16Decode(packed.data(), len, values.data());
    sink(off, values.data(), len);
  }
  WireCopyStats::Add(f.halves.size());
  ExpandBias(f.bias, f.n, sink);
  return Status::Ok();
}

Payload Fp16Codec::EncodeSr(const float* quant, int64_t n, uint32_t seed,
                            int64_t base_index, float* residual, const float* bias,
                            int64_t bias_len) {
  TraceSpan span("codec.encode.fp16", "codec", n);
  return Fp16Frame(quant, n, bias, bias_len,
                   [&](const float* src, int64_t len, int64_t off, uint16_t* halves) {
                     simd::Fp16EncodeSr(src, len, seed, base_index + off, halves);
                     if (residual != nullptr) {
                       simd::Fp16Decode(halves, len, residual + off);
                       FinishResidual(src, len, residual + off);
                     }
                   });
}

Payload Fp16Codec::EncodeRn(const float* src, int64_t n, const float* bias,
                            int64_t bias_len) {
  TraceSpan span("codec.encode.fp16", "codec", n);
  return Fp16Frame(src, n, bias, bias_len,
                   [](const float* in, int64_t len, int64_t, uint16_t* halves) {
                     simd::Fp16EncodeRn(in, len, halves);
                   });
}

// ---------------------------------------------------------------------- int8

namespace {
int64_t Int8Chunks(int64_t n) { return (n + simd::kInt8ChunkSize - 1) / simd::kInt8ChunkSize; }

int64_t Int8PackedWords(int64_t n) { return (n + 3) / 4; }
}  // namespace

StatusOr<Int8Codec::Frame> Int8Codec::Parse(const PayloadView& frame) {
  const StatusOr<std::array<int64_t, 2>> header = ReadHeader<2>("int8", frame);
  if (!header.ok()) return header.status();
  Frame parsed;
  parsed.n = (*header)[0];
  parsed.bias_len = (*header)[1];
  if (parsed.n < 1) return BadDim("int8", parsed.n);
  const Status sliced = SliceRegions("int8", frame, 2,
                                     {{Int8Chunks(parsed.n), &parsed.scales},
                                      {Int8PackedWords(parsed.n), &parsed.packed},
                                      {parsed.bias_len, &parsed.bias}});
  if (!sliced.ok()) return sliced;
  return parsed;
}

StatusOr<Codec::Shape> Int8Codec::Inspect(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Shape{{parsed->n}, parsed->bias_len};
}

Status Int8Codec::Expand(const PayloadView& frame, const Sink& sink) const {
  TraceSpan span("codec.decode.int8", "codec");
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  // Copy one window of packed bytes out of the slab at a time, then
  // dequantize it chunk by chunk with that chunk's scale.
  const char* bytes = reinterpret_cast<const char*>(f.packed.data());
  const float* scales = f.scales.data();
  std::array<int8_t, kWindow> packed;
  std::array<float, kWindow> values;
  for (int64_t off = 0; off < f.n; off += kWindow) {
    const int64_t len = std::min(kWindow, f.n - off);
    std::memcpy(packed.data(), bytes + off, static_cast<size_t>(len));
    for (int64_t c = 0; c < len; c += simd::kInt8ChunkSize) {
      simd::Int8Decode(packed.data() + c, std::min(simd::kInt8ChunkSize, len - c),
                       scales[(off + c) / simd::kInt8ChunkSize], values.data() + c);
    }
    sink(off, values.data(), len);
  }
  WireCopyStats::Add(f.scales.size() + f.packed.size());
  ExpandBias(f.bias, f.n, sink);
  return Status::Ok();
}

Payload Int8Codec::EncodeSr(const float* quant, int64_t n, uint32_t seed,
                            int64_t base_index, float* residual, const float* bias,
                            int64_t bias_len) {
  TraceSpan span("codec.encode.int8", "codec", n);
  CHECK_NOTNULL(quant);
  CHECK_GT(n, 0);
  const int64_t chunks = Int8Chunks(n);
  Payload payload;
  float* scales =
      NewFrame(&payload, {n, bias_len}, chunks + Int8PackedWords(n), bias, bias_len);
  char* bytes = reinterpret_cast<char*>(scales + chunks);
  std::array<int8_t, kWindow> packed;
  for (int64_t off = 0; off < n; off += kWindow) {
    const int64_t len = std::min(kWindow, n - off);
    for (int64_t c = 0; c < len; c += simd::kInt8ChunkSize) {
      const int64_t at = off + c;
      const int64_t chunk_len = std::min(simd::kInt8ChunkSize, len - c);
      const float max_abs = simd::MaxAbs(quant + at, chunk_len);
      // Good-guard: a chunk whose magnitude is zero or non-finite cannot be
      // scaled meaningfully; send scale 0 (decodes to exact zeros) and let
      // the residual carry the content forward.
      float scale = 0.0f;
      float inv_scale = 0.0f;
      if (max_abs > 0.0f && std::isfinite(max_abs)) {
        scale = max_abs / 127.0f;
        inv_scale = 1.0f / scale;
      }
      scales[at / simd::kInt8ChunkSize] = scale;
      simd::Int8EncodeSr(quant + at, chunk_len, inv_scale, seed, base_index + at,
                         packed.data() + c);
      if (residual != nullptr) {
        simd::Int8Decode(packed.data() + c, chunk_len, scale, residual + at);
      }
    }
    std::memcpy(bytes + off, packed.data(), static_cast<size_t>(len));
    if (residual != nullptr) {
      FinishResidual(quant + off, len, residual + off);
    }
  }
  return payload;
}

// --------------------------------------------------------------------- top-k

int64_t TopKCodec::Frame::index(int64_t i) const {
  CHECK_GE(i, 0);
  CHECK_LT(i, k);
  return static_cast<int64_t>(LoadWord(indices.data() + i));
}

StatusOr<TopKCodec::Frame> TopKCodec::Parse(const PayloadView& frame) {
  const StatusOr<std::array<int64_t, 3>> header = ReadHeader<3>("topk", frame);
  if (!header.ok()) return header.status();
  Frame parsed;
  parsed.n = (*header)[0];
  parsed.k = (*header)[1];
  parsed.bias_len = (*header)[2];
  if (parsed.n < 1) return BadDim("topk", parsed.n);
  if (parsed.k < 1 || parsed.k > parsed.n) return BadDim("topk", parsed.k);
  const Status sliced = SliceRegions(
      "topk", frame, 3,
      {{parsed.k, &parsed.indices}, {parsed.k, &parsed.values}, {parsed.bias_len, &parsed.bias}});
  if (!sliced.ok()) return sliced;
  // Indices must be strictly increasing and in-range: that proves no
  // duplicates and makes Expand's window scatter memory-safe. O(k), paid
  // once per frame on the wire-input path.
  int64_t previous = -1;
  for (int64_t i = 0; i < parsed.k; ++i) {
    const int64_t idx = parsed.index(i);
    if (idx <= previous || idx >= parsed.n) {
      return InvalidArgumentError("topk frame index " + std::to_string(idx) +
                                  " at position " + std::to_string(i) +
                                  " is out of order or out of range");
    }
    previous = idx;
  }
  return parsed;
}

StatusOr<Codec::Shape> TopKCodec::Inspect(const PayloadView& frame) const {
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  return Shape{{parsed->n}, parsed->bias_len};
}

Status TopKCodec::Expand(const PayloadView& frame, const Sink& sink) const {
  TraceSpan span("codec.decode.topk", "codec");
  StatusOr<Frame> parsed = Parse(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const Frame& f = *parsed;
  // Scatter the (index, value) pairs one zeroed window at a time; the
  // indices ascend, so one cursor walks them across the windows.
  const float* selected = f.values.data();
  std::array<float, kWindow> values;
  int64_t i = 0;
  for (int64_t off = 0; off < f.n; off += kWindow) {
    const int64_t len = std::min(kWindow, f.n - off);
    std::fill(values.begin(), values.begin() + len, 0.0f);
    for (; i < f.k && f.index(i) < off + len; ++i) {
      values[static_cast<size_t>(f.index(i) - off)] = selected[i];
    }
    sink(off, values.data(), len);
  }
  WireCopyStats::Add(2 * f.k);
  ExpandBias(f.bias, f.n, sink);
  return Status::Ok();
}

Payload TopKCodec::Encode(const float* quant, int64_t n, int64_t k, float* residual,
                          const float* bias, int64_t bias_len) {
  TraceSpan span("codec.encode.topk", "codec", n);
  CHECK_NOTNULL(quant);
  CHECK_GT(n, 0);
  CHECK_GE(k, 1);
  CHECK_LE(k, n);
  // Deterministic selection: the threshold is the k-th largest magnitude
  // (NaNs rank as zero so the order is total), elements strictly above it
  // are always in, and ties at the threshold fill the remaining slots in
  // index order. Independent of nth_element's internal permutation and of
  // the simd backend.
  std::vector<float> mags(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(quant[i]);
    mags[static_cast<size_t>(i)] = a == a ? a : 0.0f;
  }
  std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                   [](float a, float b) { return a > b; });
  const float threshold = mags[static_cast<size_t>(k - 1)];
  int64_t ties_left = k - simd::CountAbsGreater(quant, n, threshold);
  Payload payload;
  float* indices = NewFrame(&payload, {n, k, bias_len}, 2 * k, bias, bias_len);
  float* values = indices + k;
  if (residual != nullptr) {
    std::copy(quant, quant + n, residual);
  }
  int64_t taken = 0;
  for (int64_t i = 0; i < n && taken < k; ++i) {
    const float a = std::fabs(quant[i]);
    const float mag = a == a ? a : 0.0f;
    bool take = mag > threshold;
    if (!take && mag == threshold && ties_left > 0) {
      take = true;
      --ties_left;
    }
    if (take) {
      StoreWord(indices + taken, static_cast<uint32_t>(i));
      values[taken] = quant[i];
      if (residual != nullptr) {
        residual[i] = 0.0f;  // the sent value is exact; nothing carries over
      }
      ++taken;
    }
  }
  CHECK_EQ(taken, k);
  return payload;
}

// ------------------------------------------------------------------ registry

namespace {

constexpr size_t kNumCodecs = 6;

// The built-in codecs, indexed by WireCodec id. Immutable after its
// thread-safe static initialization, so lookups take no lock. The codecs
// are leaked on purpose: they stay valid for threads still running at exit.
const std::array<const Codec*, kNumCodecs>& CodecTable() {
  static const std::array<const Codec*, kNumCodecs> table = [] {
    const std::array<const Codec*, kNumCodecs> codecs = {
        new RawFloatCodec(), new OneBitCodec(), new SufficientFactorCodec(),
        new Fp16Codec(),     new Int8Codec(),   new TopKCodec()};
    for (size_t i = 0; i < codecs.size(); ++i) {
      CHECK_EQ(static_cast<size_t>(codecs[i]->id()), i) << "codec table out of id order";
    }
    return codecs;
  }();
  return table;
}

}  // namespace

const Codec& CodecRegistry::Get(WireCodec id) {
  const Codec* codec = Find(id);
  CHECK_NOTNULL(codec) << "unknown codec id " << static_cast<int>(id);
  return *codec;
}

const Codec* CodecRegistry::Find(WireCodec id) {
  const size_t index = static_cast<size_t>(id);
  return index < kNumCodecs ? CodecTable()[index] : nullptr;
}

std::vector<WireCodec> CodecRegistry::Ids() {
  std::vector<WireCodec> ids;
  for (const Codec* codec : CodecTable()) {
    ids.push_back(codec->id());
  }
  return ids;
}

}  // namespace poseidon
