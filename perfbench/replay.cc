#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "common/byte_buffer.h"
#include "common/framing.h"
#include "common/stopwatch.h"
#include "compress/delta_binary_key_codec.h"
#include "compress/quantile_bucket_quantizer.h"
#include "core/codec_factory.h"
#include "core/sketchml_config.h"
#include "ml/gradient.h"
#include "ml/optimizer.h"
#include "sketch/grouped_min_max_sketch.h"

namespace perfbench {
namespace {

namespace common = sketchml::common;
namespace compress = sketchml::compress;
namespace core = sketchml::core;
namespace ml = sketchml::ml;
namespace sketch = sketchml::sketch;

bool SameBits(const common::SparseGradient& a,
              const common::SparseGradient& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
}

bool SameKeys(const common::SparseGradient& a,
              const common::SparseGradient& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](const auto& x, const auto& y) { return x.key == y.key; });
}

std::string RoundTripFailure(const compress::GradientCodec& codec,
                             const common::SparseGradient& sent,
                             const common::Status& encoded,
                             const common::Status& decoded,
                             const common::SparseGradient& back) {
  if (!encoded.ok()) return "encode failed: " + encoded.ToString();
  if (!decoded.ok()) return "decode failed: " + decoded.ToString();
  if (codec.IsLossless()) {
    return SameBits(back, sent) ? "" : "lossless decode is not bit-exact";
  }
  return SameKeys(back, sent) ? "" : "decode did not return the input keys";
}

/// Re-encodes one SketchML sign stream through the layers the codec
/// calls, in its order and with its geometry and seeds
/// (core/sketchml_codec.cc EncodeStream), timing each layer, and appends
/// the stream's wire bytes to `writer`. The caller compares them with the
/// codec's own message, so a codec that drifts from this copy fails the
/// run instead of leaving these times on a stale path. The decode-side
/// layers then read the stream back.
void ReplayStream(const common::SparseGradient& stream, bool negate,
                  const core::SketchMlConfig& config, uint64_t seed,
                  common::ByteWriter* writer, ReplayResult* out) {
  writer->WriteVarint(stream.size());
  if (stream.empty()) return;
  std::vector<double> values;
  values.reserve(stream.size());
  for (const auto& pair : stream) {
    values.push_back(negate ? -pair.value : pair.value);
  }
  const int buckets = std::min(
      config.num_buckets, std::max(16, static_cast<int>(stream.size() / 8)));
  const int groups = std::min(config.num_groups, buckets);
  const int total_cols = std::max(
      config.min_cols, static_cast<int>(std::ceil(
                           static_cast<double>(stream.size()) *
                           config.col_ratio)));
  const auto backend = config.quantile_backend == core::QuantileBackend::kGk
                           ? compress::QuantileBucketQuantizer::Backend::kGk
                           : compress::QuantileBucketQuantizer::Backend::kKll;

  common::Stopwatch watch;
  const auto quantizer = compress::QuantileBucketQuantizer::Build(
      values, buckets, config.quantile_sketch_k, seed, backend);
  out->kll_build_s += watch.Restart();
  sketch::GroupedMinMaxSketch minmax(buckets, groups, config.rows,
                                     total_cols, seed);

  std::vector<uint16_t> bucket_of(values.size());
  watch.Restart();
  quantizer.BucketsOf(values, bucket_of.data());
  out->bucket_search_s += watch.Restart();

  const int width = minmax.group_width();
  std::vector<std::vector<uint64_t>> keys(groups);
  std::vector<std::vector<uint8_t>> locals(groups);
  for (size_t i = 0; i < stream.size(); ++i) {
    const int g = bucket_of[i] / width;
    keys[g].push_back(stream[i].key);
    locals[g].push_back(static_cast<uint8_t>(bucket_of[i] - g * width));
  }
  std::vector<uint32_t> idx_scratch;
  for (int g = 0; g < groups; ++g) {
    watch.Restart();
    minmax.InsertGroupBatch(g, keys[g], locals[g], &idx_scratch);
    out->minmax_insert_s += watch.Restart();
  }
  quantizer.SerializeMeans(writer);
  minmax.Serialize(writer);

  compress::DeltaBinaryKeyCodec::EncodeScratch delta_scratch;
  std::vector<uint64_t> decoded_keys;
  std::vector<int> queried;
  std::vector<uint8_t> local_scratch;
  for (int g = 0; g < groups; ++g) {
    common::ByteWriter key_writer;
    watch.Restart();
    const common::Status encoded = compress::DeltaBinaryKeyCodec::Encode(
        keys[g], &key_writer, &delta_scratch);
    out->delta_key_encode_s += watch.Restart();
    common::ByteReader reader(key_writer.buffer());
    const common::Status decoded =
        compress::DeltaBinaryKeyCodec::Decode(&reader, &decoded_keys);
    out->delta_key_decode_s += watch.Restart();
    if (!encoded.ok() || !decoded.ok() || decoded_keys != keys[g]) {
      out->failures.push_back("delta key round trip changed the keys");
    }
    writer->WriteBytes(key_writer.buffer());

    queried.resize(keys[g].size());
    watch.Restart();
    minmax.QueryGroupBatch(g, keys[g], queried.data(), &idx_scratch,
                           &local_scratch);
    out->minmax_query_s += watch.Restart();
    // MinMaxSketch only ever decays a value: min on insert, max on query.
    for (size_t i = 0; i < queried.size(); ++i) {
      if (queried[i] > g * width + locals[g][i]) {
        out->failures.push_back("minmax query exceeds inserted bucket");
        break;
      }
    }
  }
}

/// Replays one SketchML message's two sign streams (SketchMlCodec::
/// EncodeImpl without a pool) and returns their wire bytes.
std::vector<uint8_t> ReplaySketchLayers(const common::SparseGradient& grad,
                                        const core::SketchMlConfig& config,
                                        uint64_t seed, ReplayResult* out) {
  common::SparseGradient pos, neg;
  if (config.separate_signs) {
    for (const auto& pair : grad) {
      (pair.value >= 0 ? pos : neg).push_back(pair);
    }
  } else {
    pos = grad;
  }
  common::ByteWriter writer;
  ReplayStream(pos, /*negate=*/false, config, seed, &writer, out);
  ReplayStream(neg, /*negate=*/true, config, seed + 1, &writer, out);
  return writer.TakeBuffer();
}

bool EndsWith(const std::vector<uint8_t>& bytes,
              const std::vector<uint8_t>& suffix) {
  return bytes.size() >= suffix.size() &&
         std::equal(suffix.begin(), suffix.end(),
                    bytes.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

}  // namespace

ReplayResult ReplayEpoch(const ReplayInput& in) {
  ReplayResult out;
  common::Stopwatch watch;

  // ml: the epoch's gradient calls, partitioned exactly as the trainer
  // partitions a batch over its starting fleet.
  const size_t n = in.train->size();
  const size_t batch_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * in.batch_ratio));
  for (size_t start = 0; start < n; start += batch_size) {
    const size_t end = std::min(n, start + batch_size);
    const size_t shard = std::max<size_t>(
        1, (end - start + in.workers - 1) / static_cast<size_t>(in.workers));
    for (size_t lo = start; lo < end; lo += shard) {
      watch.Restart();
      const common::SparseGradient grad = ml::ComputeBatchGradient(
          *in.loss, in.weights, *in.train, lo, std::min(end, lo + shard),
          in.lambda);
      out.gradient_s += watch.Restart();
      if (grad.empty()) out.failures.push_back("empty replayed gradient");
    }
  }

  // ml: the optimizer consumes the aggregated updates the trainer
  // broadcast (the root lane's Encode inputs).
  ml::AdamOptimizer optimizer(in.train->dim(), in.learning_rate, 0.9, 0.999,
                              in.adam_epsilon);
  optimizer.mutable_weights() = in.weights;
  for (const auto& capture : *in.captures) {
    if (!capture.broadcast) continue;
    watch.Restart();
    optimizer.Apply(capture.grad);
    out.optimizer_apply_s += watch.Restart();
  }

  watch.Restart();
  const double train_loss =
      ml::ComputeMeanLoss(*in.loss, in.weights, *in.train, in.lambda);
  const double test_loss =
      ml::ComputeMeanLoss(*in.loss, in.weights, *in.test, 0.0);
  out.loss_eval_s += watch.Restart();
  if (!std::isfinite(train_loss) || !std::isfinite(test_loss)) {
    out.failures.push_back("replayed loss is not finite");
  }

  // core: a fresh codec of the same kind, run serially, round-trips every
  // captured input; common: on the fault path, the gather messages framed
  // and unframed.
  const core::SketchMlConfig config;
  auto made = core::MakeCodec(in.codec_name, config);
  if (!made.ok()) {
    out.failures.push_back("codec " + in.codec_name + ": " +
                           made.status().ToString());
    return out;
  }
  std::unique_ptr<compress::GradientCodec> codec = std::move(made).value();
  const bool sketchml = in.codec_name == "sketchml";
  uint64_t message = 0;
  std::vector<uint8_t> framed, payload;
  for (const auto& capture : *in.captures) {
    compress::EncodedGradient msg;
    common::SparseGradient back;
    watch.Restart();
    const common::Status encoded = codec->Encode(capture.grad, &msg);
    out.codec_encode_s += watch.Restart();
    const common::Status decoded = codec->Decode(msg, &back);
    out.codec_decode_s += watch.Restart();
    const std::string failure =
        RoundTripFailure(*codec, capture.grad, encoded, decoded, back);
    if (!failure.empty()) out.failures.push_back(failure);
    if (in.frames && !capture.broadcast) {
      watch.Restart();
      common::FrameMessage(msg.bytes, &framed);
      const common::Status unframed = common::UnframeMessage(framed, &payload);
      out.frame_s += watch.Restart();
      if (!unframed.ok() || payload != msg.bytes) {
        out.failures.push_back("frame round trip changed the message");
      }
    }
    if (sketchml) {
      // The fresh codec's message counter is the capture's index, and it
      // seeds each message as SketchMlCodec::EncodeImpl does.
      const uint64_t seed = config.seed + 0x9E3779B97F4A7C15ULL * message++;
      if (!EndsWith(msg.bytes,
                    ReplaySketchLayers(capture.grad, config, seed, &out))) {
        out.failures.push_back(
            "replayed sketch layers differ from the codec's bytes");
      }
    }
  }
  return out;
}

std::string CheckRoundTrip(compress::GradientCodec* codec,
                           const common::SparseGradient& grad) {
  compress::EncodedGradient msg;
  common::SparseGradient back;
  const common::Status encoded = codec->Encode(grad, &msg);
  const common::Status decoded =
      encoded.ok() ? codec->Decode(msg, &back) : encoded;
  return RoundTripFailure(*codec, grad, encoded, decoded, back);
}

}  // namespace perfbench
