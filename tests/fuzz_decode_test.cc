// Failure-injection tests: decoders must survive arbitrary corruption of
// the wire bytes — truncation, random byte flips, random garbage — by
// returning a Status (or, for undetectable flips, a decoded gradient),
// never by crashing, hanging, or attempting giant allocations.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/framing.h"
#include "common/random.h"
#include "common/sparse.h"
#include "core/codec_factory.h"

namespace sketchml::compress {
namespace {

common::SparseGradient MakeGradient(size_t count, uint64_t dim,
                                    uint64_t seed) {
  common::Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(dim));
  common::SparseGradient grad;
  for (uint64_t k : keys) grad.push_back({k, rng.NextGaussian() * 0.05});
  return grad;
}

class CodecFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecFuzzTest, SurvivesTruncationAtEveryPrefixLength) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(300, 1 << 18, 271);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::SparseGradient decoded;
  // Step through prefix lengths (all below 64, then every 7th) — decode
  // must return cleanly on each.
  for (size_t len = 0; len < msg.bytes.size(); len += (len < 64 ? 1 : 7)) {
    EncodedGradient truncated;
    truncated.bytes.assign(msg.bytes.begin(), msg.bytes.begin() + len);
    // The fuzz contract is only "no crash": a truncated message may fail
    // with any code, and a prefix that happens to parse is acceptable.
    // NOLINTNEXTLINE(sketchml-discarded-status): fuzz checks survival only.
    (void)codec->Decode(truncated, &decoded);
  }
}

TEST_P(CodecFuzzTest, SurvivesRandomByteFlips) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(300, 1 << 18, 277);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::Rng rng(281);
  common::SparseGradient decoded;
  for (int trial = 0; trial < 200; ++trial) {
    EncodedGradient corrupted = msg;
    const int flips = 1 + static_cast<int>(rng.NextBounded(4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(corrupted.bytes.size());
      corrupted.bytes[pos] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    const common::Status status = codec->Decode(corrupted, &decoded);
    if (status.ok()) {
      // Undetectable corruption may change content but must still honor
      // basic size sanity (no billion-element explosions).
      EXPECT_LT(decoded.size(), msg.bytes.size() * 8);
    }
  }
}

TEST_P(CodecFuzzTest, SurvivesRandomGarbage) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  common::Rng rng(283);
  common::SparseGradient decoded;
  for (int trial = 0; trial < 300; ++trial) {
    EncodedGradient garbage;
    const size_t len = rng.NextBounded(256);
    garbage.bytes.resize(len);
    for (auto& b : garbage.bytes) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    // As above: garbage bytes must be survived, not classified.
    // NOLINTNEXTLINE(sketchml-discarded-status): fuzz checks survival only.
    (void)codec->Decode(garbage, &decoded);
  }
}

TEST_P(CodecFuzzTest, HugeDeclaredCountsAreRejectedCheaply) {
  // A message declaring 2^40 pairs must fail validation instead of
  // attempting the allocation.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  EncodedGradient msg;
  msg.bytes = {0x01};  // Version / type byte.
  // Varint for a huge count.
  for (int i = 0; i < 5; ++i) msg.bytes.push_back(0xff);
  msg.bytes.push_back(0x7f);
  msg.bytes.resize(64, 0);
  common::SparseGradient decoded;
  const common::Status status = codec->Decode(msg, &decoded);
  // Formats whose count field sits at offset 1 must reject outright; for
  // the others the bytes parse as something tiny — either way no giant
  // allocation may happen.
  if (status.ok()) {
    EXPECT_LT(decoded.size(), 64u);
  }
}

TEST_P(CodecFuzzTest, SurvivesSingleBitFlipAtEveryPosition) {
  // Exhaustive single-bit damage over the head of the message (where
  // every format keeps its counts and offsets) and sampled positions
  // beyond: decode must return cleanly each time.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(120, 1 << 18, 293);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());

  common::SparseGradient decoded;
  for (size_t byte = 0; byte < msg.bytes.size();
       byte += (byte < 96 ? 1 : 13)) {
    for (int bit = 0; bit < 8; ++bit) {
      EncodedGradient corrupted = msg;
      corrupted.bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      const common::Status status = codec->Decode(corrupted, &decoded);
      if (status.ok()) {
        EXPECT_LT(decoded.size(), msg.bytes.size() * 8);
      }
    }
  }
}

TEST_P(CodecFuzzTest, ZeroLengthMessageIsHandledCleanly) {
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  common::SparseGradient decoded;
  EncodedGradient empty;
  const common::Status status = codec->Decode(empty, &decoded);
  if (status.ok()) {
    EXPECT_TRUE(decoded.empty());
  }
}

TEST_P(CodecFuzzTest, FramedMessagesNeverFalseOkOnCorruption) {
  // The trainer's fault path wraps every codec message in the CRC frame;
  // at that layer *every* single-bit flip and truncation must be
  // detected, so no corrupted payload ever reaches the codec undetected.
  auto codec = std::move(core::MakeCodec(GetParam())).value();
  const auto grad = MakeGradient(120, 1 << 18, 307);
  EncodedGradient msg;
  ASSERT_TRUE(codec->Encode(grad, &msg).ok());
  std::vector<uint8_t> framed;
  common::FrameMessage(msg.bytes, &framed);

  std::vector<uint8_t> payload;
  for (size_t byte = 0; byte < framed.size();
       byte += (byte < 64 ? 1 : 11)) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = framed;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(common::UnframeMessage(flipped, &payload).ok())
          << "undetected flip at byte " << byte << " bit " << bit;
    }
  }
  for (size_t keep = 0; keep < framed.size();
       keep += (keep < 64 ? 1 : 11)) {
    std::vector<uint8_t> cut(framed.begin(), framed.begin() + keep);
    EXPECT_FALSE(common::UnframeMessage(cut, &payload).ok())
        << "undetected truncation to " << keep << " bytes";
  }
}

// Spliced sign streams: every byte of the message is well formed, but
// the positive stream of one message (key 5, +0.25) is followed by the
// negative stream of another (key 5, -0.25), so key 5 appears twice. A
// decoder that let it through would have the aggregate count one
// worker's value for key 5 twice.

EncodedGradient EncodeOne(const std::string& codec_name, double value) {
  auto codec = std::move(core::MakeCodec(codec_name)).value();
  EncodedGradient msg;
  EXPECT_TRUE(codec->Encode({{5, value}}, &msg).ok());
  return msg;
}

std::vector<uint8_t> Slice(const std::vector<uint8_t>& bytes, size_t begin,
                           size_t end) {
  return std::vector<uint8_t>(bytes.begin() + begin, bytes.begin() + end);
}

void ExpectDuplicateKeyRejected(const std::string& codec_name,
                                const EncodedGradient& spliced) {
  auto codec = std::move(core::MakeCodec(codec_name)).value();
  common::SparseGradient decoded;
  const common::Status status = codec->Decode(spliced, &decoded);
  EXPECT_EQ(status.code(), common::StatusCode::kCorruptedData)
      << status.ToString() << ", decoded " << decoded.size() << " pairs";
  EXPECT_NE(status.message().find("duplicate"), std::string::npos)
      << status.ToString();
}

TEST(SplicedStreamTest, SketchMlRejectsAKeyInBothSignStreams) {
  // Layout: version, total pairs, positive stream, negative stream; an
  // empty stream is its zero count byte.
  const auto pos = EncodeOne("sketchml", 0.25).bytes;  // v, 1, P, 0
  const auto neg = EncodeOne("sketchml", -0.25).bytes;  // v, 1, 0, N
  EncodedGradient spliced;
  spliced.bytes = {pos[0], 2};
  const auto p = Slice(pos, 2, pos.size() - 1);
  const auto n = Slice(neg, 3, neg.size());
  spliced.bytes.insert(spliced.bytes.end(), p.begin(), p.end());
  spliced.bytes.insert(spliced.bytes.end(), n.begin(), n.end());
  ExpectDuplicateKeyRejected("sketchml", spliced);
}

TEST(SplicedStreamTest, QuantileOnlyRejectsAKeyInBothSignStreams) {
  // Layout: version, positive stream, negative stream; an empty stream
  // is its zero count byte.
  const auto pos = EncodeOne("adam+key+quan", 0.25).bytes;  // v, P, 0
  const auto neg = EncodeOne("adam+key+quan", -0.25).bytes;  // v, 0, N
  EncodedGradient spliced;
  spliced.bytes = Slice(pos, 0, pos.size() - 1);
  const auto n = Slice(neg, 2, neg.size());
  spliced.bytes.insert(spliced.bytes.end(), n.begin(), n.end());
  ExpectDuplicateKeyRejected("adam+key+quan", spliced);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzzTest,
                         ::testing::ValuesIn(core::KnownCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace sketchml::compress
