// Forwarding timing decorator for any GradientCodec, modelled on
// compress::ChecksummedCodec. The traced run hands one to the trainer so
// every real Encode/Decode call the trainer makes, on every worker lane
// and the broadcast lane, is timed without adding tracing to the program.
#ifndef PERFBENCH_TIMING_CODEC_H_
#define PERFBENCH_TIMING_CODEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sparse.h"
#include "common/stopwatch.h"
#include "compress/codec.h"

namespace perfbench {

/// Totals shared by a decorator and all of its forks. Busy seconds are
/// summed over the threads that made the calls.
struct CodecLedger {
  struct Totals {
    double encode_s = 0.0;
    double decode_s = 0.0;
    uint64_t encode_calls = 0;
    uint64_t decode_calls = 0;
    uint64_t bytes_in = 0;   // 16 bytes per (key, value) pair encoded.
    uint64_t bytes_out = 0;  // Encoded message bytes.
  };

  /// One captured Encode input, for the layer replay.
  struct Capture {
    bool broadcast = false;  // Root instance (the trainer's update lane).
    sketchml::common::SparseGradient grad;
  };

  /// While set, every Encode input is copied into `captures` (outside the
  /// timed window). Only toggled between RunEpoch calls.
  std::atomic<bool> capture{false};

  std::mutex mu;
  Totals totals;                  // Guarded by mu.
  std::vector<Capture> captures;  // Guarded by mu.

  Totals Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return totals;
  }
};

class TimingCodec : public sketchml::compress::GradientCodec {
 public:
  TimingCodec(std::unique_ptr<sketchml::compress::GradientCodec> inner,
              std::shared_ptr<CodecLedger> ledger, bool broadcast = true)
      : inner_(std::move(inner)),
        ledger_(std::move(ledger)),
        broadcast_(broadcast) {}

  /// The inner name, unchanged: names key metric labels only, and the
  /// decorated run must match the undecorated one in every output.
  std::string Name() const override { return inner_->Name(); }
  bool IsLossless() const override { return inner_->IsLossless(); }

  /// Forkable iff the wrapped codec is. Without this the trainer clamps
  /// itself to one thread.
  std::unique_ptr<sketchml::compress::GradientCodec> Fork(
      uint64_t lane) const override {
    auto inner_fork = inner_->Fork(lane);
    if (inner_fork == nullptr) return nullptr;
    return std::make_unique<TimingCodec>(std::move(inner_fork), ledger_,
                                         /*broadcast=*/false);
  }

  void SetThreadPool(sketchml::common::ThreadPool* pool) override {
    inner_->SetThreadPool(pool);
  }
  void SaveState(sketchml::common::ByteWriter* writer) const override {
    inner_->SaveState(writer);
  }
  [[nodiscard]] sketchml::common::Status RestoreState(
      sketchml::common::ByteReader* reader) override {
    return inner_->RestoreState(reader);
  }

 protected:
  sketchml::common::Status EncodeImpl(
      const sketchml::common::SparseGradient& grad,
      sketchml::compress::EncodedGradient* out) override {
    if (ledger_->capture.load(std::memory_order_relaxed)) {
      CodecLedger::Capture copy{broadcast_, grad};
      std::lock_guard<std::mutex> lock(ledger_->mu);
      ledger_->captures.push_back(std::move(copy));
    }
    sketchml::common::Stopwatch watch;
    sketchml::common::Status status = inner_->Encode(grad, out);
    const double elapsed = watch.ElapsedSeconds();
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->totals.encode_s += elapsed;
    ++ledger_->totals.encode_calls;
    ledger_->totals.bytes_in += grad.size() * 16;
    ledger_->totals.bytes_out += out->size();
    return status;
  }

  sketchml::common::Status DecodeImpl(
      const sketchml::compress::EncodedGradient& in,
      sketchml::common::SparseGradient* out) override {
    sketchml::common::Stopwatch watch;
    sketchml::common::Status status = inner_->Decode(in, out);
    const double elapsed = watch.ElapsedSeconds();
    std::lock_guard<std::mutex> lock(ledger_->mu);
    ledger_->totals.decode_s += elapsed;
    ++ledger_->totals.decode_calls;
    return status;
  }

 private:
  std::unique_ptr<sketchml::compress::GradientCodec> inner_;
  std::shared_ptr<CodecLedger> ledger_;
  bool broadcast_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_CODEC_H_
