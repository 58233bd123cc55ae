// Layer replay: re-issues one epoch's calls into each module's public
// functions, serially and on the inputs the traced trainer really saw,
// and times each module on its own.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "ml/dataset.h"
#include "ml/loss.h"
#include "ml/types.h"
#include "timing_codec.h"

namespace perfbench {

struct ReplayInput {
  const sketchml::ml::Loss* loss = nullptr;
  const sketchml::ml::Dataset* train = nullptr;
  const sketchml::ml::Dataset* test = nullptr;
  sketchml::ml::DenseVector weights;  // Weights before the captured epoch.
  double lambda = 0.0;
  double batch_ratio = 0.0;
  int workers = 1;
  double learning_rate = 0.0;
  double adam_epsilon = 0.0;
  std::string codec_name;
  /// The trainer CRC-frames its gather messages only on the fault path
  /// (faults active); the replay frames them only then.
  bool frames = false;
  /// Every Encode input of the captured epoch, in call order per lane.
  const std::vector<CodecLedger::Capture>* captures = nullptr;
};

/// Busy seconds per layer over the replayed epoch. A layer the workload
/// does not call reads 0: the sketch/compress sub-layer times for codecs
/// other than sketchml, and the framing time off the fault path.
struct ReplayResult {
  double gradient_s = 0.0;         // ml::ComputeBatchGradient.
  double loss_eval_s = 0.0;        // ml::ComputeMeanLoss, train + test.
  double optimizer_apply_s = 0.0;  // ml::AdamOptimizer::Apply.
  double codec_encode_s = 0.0;     // GradientCodec::Encode, whole codec.
  double codec_decode_s = 0.0;     // GradientCodec::Decode, whole codec.
  double frame_s = 0.0;            // common::FrameMessage + UnframeMessage.
  double kll_build_s = 0.0;        // QuantileBucketQuantizer::Build (KLL).
  double bucket_search_s = 0.0;    // QuantileBucketQuantizer::BucketsOf.
  double minmax_insert_s = 0.0;    // GroupedMinMaxSketch::InsertGroupBatch.
  double minmax_query_s = 0.0;     // GroupedMinMaxSketch::QueryGroupBatch.
  double delta_key_encode_s = 0.0;  // DeltaBinaryKeyCodec::Encode.
  double delta_key_decode_s = 0.0;  // DeltaBinaryKeyCodec::Decode.
  /// Correctness of the replay: lossless codecs decode bit-exact, lossy
  /// ones return exactly the input keys, every sub-layer round trip holds
  /// its invariant, and the replayed sketchml layers reproduce the codec's
  /// bytes exactly. Empty when all hold.
  std::vector<std::string> failures;
};

ReplayResult ReplayEpoch(const ReplayInput& in);

/// Encodes `grad` and decodes it back. Returns "" when the round trip
/// holds (bit-exact for a lossless codec, exactly the input keys
/// otherwise), else what went wrong.
std::string CheckRoundTrip(sketchml::compress::GradientCodec* codec,
                           const sketchml::common::SparseGradient& grad);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
