#include "dist/trainer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common/byte_buffer.h"
#include "common/framing.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "compress/raw_codec.h"
#include "dist/checkpoint.h"
#include "ml/gradient.h"

namespace sketchml::dist {

namespace {

/// Fixed seed/geometry of the per-shard mergeable state: every shard
/// (and every run) uses the same values, so serialize -> merge across
/// shards is always legal and the state is a pure function of the
/// aggregated gradient stream.
constexpr uint64_t kShardSketchSeed = 0x5ad5ad5ad5ad5ad5ULL;
constexpr int kShardKeyRows = 3;
constexpr int kShardKeyCols = 1024;

/// Empty per-shard mergeable state. The value sketch is telemetry
/// internal, excluded from the sketch/kll/* self-metrics like the obs
/// layer's own sketches.
sketch::KllSketch EmptyShardValues() {
  sketch::KllSketch values(/*k=*/256, kShardSketchSeed);
  values.SetInstrumented(false);
  return values;
}

/// Log2-magnitude bucket of a gradient value for the shard key cache
/// (MinMaxSketch stores one byte per key; bucket 0 = tiniest/zero).
uint8_t MagnitudeBucket(double value) {
  const double magnitude = std::abs(value);
  if (!(magnitude > 0.0)) return 0;
  int exponent = 0;
  (void)std::frexp(magnitude, &exponent);
  // exponent of normal doubles spans about [-1021, 1025); shift into
  // [0, 254] so kEmpty (255) keeps its "never written" meaning.
  const int bucket = (exponent + 1074) / 9;
  return static_cast<uint8_t>(std::clamp(bucket, 0, 254));
}

/// Rejects knobs that would train on garbage: a NaN or out-of-range
/// batch ratio reaches a double -> size_t cast (undefined behaviour),
/// and a non-finite step or regularizer poisons every weight.
common::Status ValidateTrainerConfig(const TrainerConfig& config) {
  const auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  const char* bad = nullptr;
  if (!(config.batch_ratio > 0.0 && config.batch_ratio <= 1.0)) {
    bad = "batch_ratio must be in (0, 1]";
  } else if (!positive(config.learning_rate)) {
    bad = "learning_rate must be finite and > 0";
  } else if (!(std::isfinite(config.lambda) && config.lambda >= 0.0)) {
    bad = "lambda must be finite and >= 0";
  } else if (config.use_adam && !positive(config.adam_epsilon)) {
    bad = "adam_epsilon must be finite and > 0";
  }
  return bad == nullptr ? common::Status::Ok()
                        : common::Status::InvalidArgument(
                              std::string("TrainerConfig.") + bad);
}

/// The metric registries behind an on/off switch. Off, every Get*
/// returns an inert handle that ignores Add/Set/Record, so publishing
/// code needs no enable flags and an off feature registers no names.
struct Registrar {
  bool on;
  obs::Counter GetCounter(std::string_view base,
                          const obs::MetricLabels& labels = {}) const {
    return on ? obs::MetricsRegistry::Global().GetCounter(base, labels)
              : obs::Counter();
  }
  obs::Gauge GetGauge(std::string_view base) const {
    return on ? obs::MetricsRegistry::Global().GetGauge(base, {})
              : obs::Gauge();
  }
  obs::SketchHistogram Get(std::string_view base,
                           const obs::MetricLabels& labels = {}) const {
    return on ? obs::SketchHistogramRegistry::Global().Get(base, labels)
              : obs::SketchHistogram();
  }
};

/// Recovery error: codecs keep keys exact, so walk the sorted sent and
/// decoded lists in lockstep and accumulate |sent - got| and |sent|.
void AccumulateRecovery(const common::SparseGradient& sent,
                        const common::SparseGradient& got, double* error_l1,
                        double* ref_l1) {
  size_t j = 0;
  for (const auto& pair : sent) {
    while (j < got.size() && got[j].key < pair.key) ++j;
    const double value =
        (j < got.size() && got[j].key == pair.key) ? got[j].value : 0.0;
    *error_l1 += std::abs(value - pair.value);
    *ref_l1 += std::abs(pair.value);
  }
}

/// Runs fn(0) .. fn(count - 1) as pool tasks and returns the results in
/// index order. `meanwhile()` runs on the calling thread between
/// submitting the tasks and collecting them, so driver work overlaps the
/// tasks without becoming one. Without a pool (or with a single task)
/// everything runs inline, `meanwhile` first.
template <typename Fn, typename Meanwhile>
auto MapTasks(common::ThreadPool* pool, size_t count, const Fn& fn,
              const Meanwhile& meanwhile) {
  using T = decltype(fn(size_t{0}));
  std::vector<T> results(count);
  if (pool == nullptr || count <= 1) {
    meanwhile();
    for (size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  std::vector<common::TaskFuture<T>> futures(count);
  for (size_t i = 0; i < count; ++i) {
    futures[i] = pool->Submit([&fn, i] { return fn(i); });
  }
  meanwhile();
  for (size_t i = 0; i < count; ++i) results[i] = futures[i].Get();
  return results;
}

/// Orders a decoded pair against a key bound, for std::lower_bound.
bool KeyBelow(const common::GradientPair& pair, uint64_t key) {
  return pair.key < key;
}

}  // namespace

/// One executor's share of a batch. The worker stage fills it on
/// whatever thread runs the task; the reduce stage reads it in fixed
/// worker order. Tasks share no mutable state: worker w's codec is its
/// own forked seed lane, so results are bit-identical at any thread
/// count.
struct DistributedTrainer::WorkerResult {
  int worker = 0;  // Id in the membership universe (keys metric slots).
  common::Status status;
  // Decoded pairs: one strictly key-ascending run per delivered shard,
  // runs in shard order. run_ends[i] is where run i ends in `decoded`.
  common::SparseGradient decoded;
  std::vector<size_t> run_ends;
  std::vector<size_t> shard_bytes;  // Wire bytes per server shard.
  // Decode seconds attributed to each server shard; lets the driver
  // publish per-server slices.
  std::vector<double> shard_decode_seconds;
  // Modeled seconds on each server's gather link, including every
  // retransmit attempt and backoff wait.
  std::vector<double> shard_link_seconds;
  size_t nnz = 0;
  double compute_seconds = 0.0;
  double encode_seconds = 0.0;
  // L1 distance between this worker's sent gradient and what the server
  // decoded, plus the sent gradient's own L1 (the denominator for a
  // relative recovery error). Only filled when metrics are on; read-only
  // over the same values either way, so the byte stream and losses are
  // bit-identical with metrics on or off.
  double recovery_error_l1 = 0.0;
  double recovery_ref_l1 = 0.0;
  // Fault accounting (all zero / contributes=true when the plan is
  // inactive). A worker contributes to the batch aggregate only if it
  // did not crash and every non-empty shard message was delivered.
  bool crashed = false;
  bool straggled = false;
  bool contributes = true;
  uint64_t injected_drops = 0;
  uint64_t injected_corruptions = 0;
  uint64_t retries = 0;
  uint64_t retransmit_bytes = 0;
  uint64_t lost = 0;
  double retry_seconds = 0.0;  // Backoff + retransmit link time.
};

common::Status ValidateClusterConfig(const ClusterConfig& cluster) {
  if (cluster.num_workers < 1) {
    return common::Status::InvalidArgument(
        "ClusterConfig.num_workers must be >= 1");
  }
  if (cluster.num_servers < 1) {
    return common::Status::InvalidArgument(
        "ClusterConfig.num_servers must be >= 1");
  }
  SKETCHML_RETURN_IF_ERROR(cluster.network.Validate());
  if (!(cluster.compute_scale >= 0.0)) {
    return common::Status::InvalidArgument(
        "ClusterConfig.compute_scale must be >= 0");
  }
  if (!(cluster.codec_scale >= 0.0)) {
    return common::Status::InvalidArgument(
        "ClusterConfig.codec_scale must be >= 0");
  }
  SKETCHML_RETURN_IF_ERROR(ValidateFaultPlan(cluster.faults));
  if (cluster.faults.min_quorum > cluster.num_workers) {
    return common::Status::InvalidArgument(
        "FaultPlan.min_quorum exceeds num_workers: no batch could ever "
        "reach quorum");
  }
  SKETCHML_RETURN_IF_ERROR(ValidateMembershipPlan(cluster.membership));
  if (ResolvedMaxWorkers(cluster.membership, cluster.num_workers) <
      cluster.num_workers) {
    return common::Status::InvalidArgument(
        "MembershipPlan.max_workers is below num_workers: the starting "
        "fleet would not fit the id universe");
  }
  if (cluster.membership.min_workers > cluster.num_workers) {
    return common::Status::InvalidArgument(
        "MembershipPlan.min_workers exceeds num_workers: the starting "
        "fleet is already below the scale-down floor");
  }
  // FaultPlan x MembershipPlan cross-validation: after the maximum
  // scheduled scale-down only min_workers workers remain active, so a
  // quorum above that can never be met once churn shrinks the fleet —
  // every later epoch would fail kUnavailable by construction.
  if (cluster.membership.CanShrink() &&
      cluster.faults.min_quorum > cluster.membership.min_workers) {
    return common::Status::InvalidArgument(
        "FaultPlan.min_quorum (" +
        std::to_string(cluster.faults.min_quorum) +
        ") can never be met after the maximum scheduled scale-down: "
        "MembershipPlan.min_workers leaves only " +
        std::to_string(cluster.membership.min_workers) +
        " active workers");
  }
  return common::Status::Ok();
}

DistributedTrainer::DistributedTrainer(
    const ml::Dataset* train, const ml::Dataset* test, const ml::Loss* loss,
    std::unique_ptr<compress::GradientCodec> codec,
    const ClusterConfig& cluster, const TrainerConfig& config)
    : train_(train),
      test_(test),
      loss_(loss),
      codec_(std::move(codec)),
      cluster_(cluster),
      config_(config),
      injector_(cluster.faults) {
  SKETCHML_CHECK(train != nullptr);
  SKETCHML_CHECK(loss != nullptr);
  // Recoverable configuration errors surface from RunEpoch/Run (a
  // constructor cannot return a Status); skip the remaining setup so a
  // bad NetworkModel never reaches TransferSeconds.
  init_status_ = ValidateClusterConfig(cluster_);
  if (init_status_.ok()) init_status_ = ValidateTrainerConfig(config_);
  if (!init_status_.ok()) return;
  faults_active_ = cluster_.faults.Active();
  membership_active_ = cluster_.membership.Active();
  // The directory exists on both paths: with an inactive plan it pins
  // the identity fleet 0..num_workers-1 forever, so directory_.active()
  // is always the list of worker ids a batch partitions over.
  directory_ = MembershipDirectory(cluster_.membership, cluster_.num_workers);
  active_servers_ = cluster_.num_servers;
  if (membership_active_) {
    ring_.Rebuild(active_servers_);
    // Per-shard mergeable state (see the header).
    shard_values_.assign(cluster_.num_servers, EmptyShardValues());
    shard_keys_.assign(cluster_.num_servers,
                       sketch::MinMaxSketch(kShardKeyRows, kShardKeyCols,
                                            kShardSketchSeed));
  }
  if (codec_ == nullptr) {
    codec_ = std::make_unique<compress::RawCodec>();
  }
  if (config_.use_adam) {
    optimizer_ = std::make_unique<ml::AdamOptimizer>(
        train->dim(), config_.learning_rate, 0.9, 0.999,
        config_.adam_epsilon);
  } else {
    optimizer_ = std::make_unique<ml::SgdOptimizer>(train->dim(),
                                                    config_.learning_rate);
  }

  // One forked codec per worker lane — one per id in the membership
  // universe, not just the starting fleet, so a worker that joins later
  // already owns its deterministic seed lane. Forking is independent of
  // the thread count so that every thread count replays the same byte
  // streams (worker w always encodes with lane w).
  const int fleet = directory_.universe();
  num_threads_ = config_.num_threads == 0
                     ? common::ThreadPool::DefaultThreadCount()
                     : std::max(1, config_.num_threads);
  worker_codecs_.reserve(fleet);
  for (int w = 0; w < fleet; ++w) {
    auto fork = codec_->Fork(static_cast<uint64_t>(w));
    if (fork == nullptr) {
      // Unforkable codec: all workers must share the one instance, which
      // is only safe serially.
      worker_codecs_.clear();
      num_threads_ = 1;
      break;
    }
    fork->SetMetricLabel("worker", std::to_string(w));
    worker_codecs_.push_back(std::move(fork));
  }
  if (num_threads_ > 1) {
    pool_ = std::make_unique<common::ThreadPool>(num_threads_, "trainer");
    for (auto& codec : worker_codecs_) codec->SetThreadPool(pool_.get());
    codec_->SetThreadPool(pool_.get());
  }
  RegisterMetrics(fleet);
}

void DistributedTrainer::RegisterMetrics(int fleet) {
  // Every handle vector spans the fleet either way; names register only
  // while the feature that publishes them is on. A fault-free (churn-free,
  // checkpoint-free) run thus registers no fault (membership, checkpoint)
  // names, keeping its dump and series files bit-identical to a build
  // without that layer.
  metrics_on_ = obs::MetricsEnabled();
  const Registrar on{metrics_on_};
  for (int w = 0; w < fleet; ++w) {
    const std::string ws = std::to_string(w);
    metrics_.worker_compute.push_back(on.GetCounter(
        "trainer/worker_seconds", {{"worker", ws}, {"phase", "compute"}}));
    metrics_.worker_encode.push_back(on.GetCounter(
        "trainer/worker_seconds", {{"worker", ws}, {"phase", "encode"}}));
    metrics_.worker_recovery_err.push_back(
        on.GetCounter("trainer/recovery_error_l1", {{"worker", ws}}));
    metrics_.worker_recovery_ref.push_back(
        on.GetCounter("trainer/recovery_ref_l1", {{"worker", ws}}));
  }
  for (int s = 0; s < cluster_.num_servers; ++s) {
    const std::string ss = std::to_string(s);
    metrics_.server_decode.push_back(on.GetCounter(
        "trainer/server_seconds", {{"server", ss}, {"phase", "decode"}}));
    metrics_.server_gather.push_back(on.GetCounter(
        "trainer/server_seconds", {{"server", ss}, {"phase", "gather"}}));
    metrics_.server_bytes.push_back(
        on.GetCounter("trainer/gather_bytes", {{"server", ss}}));
  }
  metrics_.driver_encode =
      on.GetCounter("trainer/driver_seconds", {{"phase", "encode"}});
  metrics_.driver_decode =
      on.GetCounter("trainer/driver_seconds", {{"phase", "decode"}});
  metrics_.driver_update =
      on.GetCounter("trainer/driver_seconds", {{"phase", "update"}});
  metrics_.driver_network =
      on.GetCounter("trainer/driver_seconds", {{"phase", "network"}});

  // Sketch-native latency telemetry: per-worker KLL-backed sketches plus
  // the cluster-wide slots the driver merges them into at every epoch
  // boundary. See SketchTelemetry in the header.
  for (int w = 0; w < fleet; ++w) {
    const obs::MetricLabels worker = {{"worker", std::to_string(w)}};
    sketch_metrics_.compute.workers.push_back(
        on.Get("trainer/compute_latency_seconds", worker));
    sketch_metrics_.encode.workers.push_back(
        on.Get("trainer/encode_latency_seconds", worker));
    sketch_metrics_.push.workers.push_back(
        on.Get("trainer/push_modeled_seconds", worker));
  }
  sketch_metrics_.compute.cluster = on.Get("trainer/compute_latency_seconds");
  sketch_metrics_.encode.cluster = on.Get("trainer/encode_latency_seconds");
  sketch_metrics_.push.cluster = on.Get("trainer/push_modeled_seconds");
  sketch_metrics_.merges = on.GetCounter("telemetry/merges");
  sketch_metrics_.merge_bytes = on.GetCounter("telemetry/merge_bytes");

  const Registrar faults{metrics_on_ && faults_active_};
  for (int w = 0; w < fleet; ++w) {
    const std::string ws = std::to_string(w);
    const auto injected = [&](const char* kind) {
      return faults.GetCounter("fault/injected",
                               {{"kind", kind}, {"worker", ws}});
    };
    fault_metrics_.injected_drop.push_back(injected("drop"));
    fault_metrics_.injected_corrupt.push_back(injected("corrupt"));
    fault_metrics_.injected_straggle.push_back(injected("straggle"));
    fault_metrics_.injected_crash.push_back(injected("crash"));
    fault_metrics_.retries.push_back(
        faults.GetCounter("net/retries", {{"worker", ws}}));
    fault_metrics_.retransmit_bytes.push_back(
        faults.GetCounter("net/retransmit_bytes", {{"worker", ws}}));
  }
  for (int s = 0; s < cluster_.num_servers; ++s) {
    fault_metrics_.injected_stall.push_back(faults.GetCounter(
        "fault/injected", {{"kind", "stall"}, {"server", std::to_string(s)}}));
  }
  fault_metrics_.lost_messages = faults.GetCounter("net/lost_messages");
  fault_metrics_.quorum = faults.GetGauge("trainer/quorum");

  const Registrar churn{metrics_on_ && membership_active_};
  auto& m = membership_metrics_;
  m.joins = churn.GetCounter("membership/events", {{"kind", "join"}});
  m.leaves = churn.GetCounter("membership/events", {{"kind", "leave"}});
  m.departs = churn.GetCounter("membership/events", {{"kind", "depart"}});
  m.handoff_bytes = churn.GetCounter("membership/handoff_bytes");
  m.sync_bytes = churn.GetCounter("membership/sync_bytes");
  m.reconfigurations = churn.GetCounter("membership/reconfigurations");
  m.active_workers = churn.GetGauge("membership/active_workers");
  m.active_servers = churn.GetGauge("membership/active_servers");
  const Registrar checkpoints{metrics_on_ &&
                              cluster_.membership.CheckpointsEnabled()};
  m.rollbacks = checkpoints.GetCounter("membership/rollbacks");
  m.checkpoint_bytes = checkpoints.GetCounter("membership/checkpoint_bytes");
}

std::vector<common::SparseGradient> DistributedTrainer::SplitByShard(
    common::SparseGradient grad) const {
  const int servers = cluster_.num_servers;
  std::vector<common::SparseGradient> shards(servers);
  if (servers == 1) {
    shards[0] = std::move(grad);
    return shards;
  }
  // Owning shard of a key: the consistent-hash ring while the membership
  // layer is active (shards come and go, see ReconfigureShards), else the
  // key-range partition, so churn-off byte streams stay bit-identical to
  // the fixed-fleet trainer.
  const uint64_t dim = std::max<uint64_t>(1, train_->dim());
  const auto shard_of = [&](uint64_t key) {
    if (membership_active_) return ring_.ShardOf(key);
    return static_cast<int>(key * static_cast<uint64_t>(servers) / dim);
  };
  // A single pass: keys are sorted and shard ranges are contiguous.
  const size_t hint = grad.size() / static_cast<size_t>(servers) + 1;
  for (auto& piece : shards) piece.reserve(hint);
  for (const auto& pair : grad) {
    const int dest = shard_of(pair.key);
    // A key >= dim would compute a shard past the last server and
    // corrupt the neighbouring vector silently.
    SKETCHML_DCHECK_GE(dest, 0);
    SKETCHML_DCHECK_LT(dest, servers)
        << "gradient key " << pair.key << " outside model dim " << dim;
    shards[dest].push_back(pair);
  }
  return shards;
}

std::vector<DistributedTrainer::WorkerResult> DistributedTrainer::RunWorkers(
    size_t batch_start, size_t batch_end, const obs::SpanContext& batch_ctx,
    const std::function<void()>& meanwhile) {
  // Slice i of the batch belongs to worker ids[i]: RunWorker takes the
  // *worker id* (it keys fault decisions and picks the codec seed lane),
  // while ranges/results stay slice-indexed. With membership off
  // ids[i] == i and this is the fixed-fleet partition.
  const std::vector<int>& ids = directory_.active();
  const size_t workers = ids.size();
  const size_t slice =
      std::max<size_t>(1, (batch_end - batch_start + workers - 1) / workers);
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i < workers; ++i) {
    const size_t lo = batch_start + i * slice;
    if (lo >= batch_end) break;
    ranges.emplace_back(lo, std::min(batch_end, lo + slice));
  }
  // Slice 0 always exists: the batch is non-empty and workers >= 1.
  SKETCHML_DCHECK(!ranges.empty());
  return MapTasks(
      pool_.get(), ranges.size(),
      [&](size_t i) {
        return RunWorker(ids[i], ranges[i].first, ranges[i].second, batch_ctx);
      },
      meanwhile);
}

DistributedTrainer::WorkerResult DistributedTrainer::RunWorker(
    int w, size_t lo, size_t hi, const obs::SpanContext& batch_ctx) {
  const int servers = cluster_.num_servers;
  const uint64_t gbatch = batches_run_;
  WorkerResult r;
  r.worker = w;
  r.shard_bytes.assign(servers, 0);
  r.shard_decode_seconds.assign(servers, 0.0);
  r.shard_link_seconds.assign(servers, 0.0);
  if (faults_active_ && injector_.WorkerCrashed(gbatch, w)) {
    // Crash-for-k-batches: the executor is down, computes nothing and
    // sends nothing. It rejoins via the (fault-free) weight broadcast.
    r.crashed = true;
    r.contributes = false;
    return r;
  }
  const double straggle =
      faults_active_ ? injector_.StraggleFactor(gbatch, w) : 1.0;
  r.straggled = straggle > 1.0;
  compress::GradientCodec* codec = WorkerCodec(w);
  // Cross-thread hand-off: this task may run on a pool thread, so adopt
  // the batch's context and open this worker's push span under it. Inner
  // spans (compute below, the codec's encode/decode, the modeled transfer
  // attempts) then chain off the push span through the thread-local
  // context stack.
  obs::TraceContextScope batch_scope(batch_ctx);
  std::optional<obs::TraceSpan> push_span;
  if (batch_ctx.valid()) {
    push_span.emplace("trainer", "push");
    push_span->Arg("worker", static_cast<double>(w));
    push_span->Arg("batch", static_cast<double>(gbatch));
  }
  common::Stopwatch watch;
  common::SparseGradient grad;
  {
    std::optional<obs::TraceSpan> span;
    if (batch_ctx.valid()) {
      span.emplace("trainer", "compute");
      span->Arg("worker", static_cast<double>(w));
    }
    grad = ml::ComputeBatchGradient(*loss_, optimizer_->weights(), *train_,
                                    lo, hi, config_.lambda);
  }
  r.compute_seconds = watch.Restart() * straggle;
  r.nnz = grad.size();

  // Split by server shard, then encode one message per non-empty shard
  // and deliver it to the server that owns the shard.
  const std::vector<common::SparseGradient> per_shard =
      SplitByShard(std::move(grad));
  for (int s = 0; s < servers; ++s) {
    if (per_shard[s].empty()) continue;
    watch.Restart();
    compress::EncodedGradient msg;
    r.status = codec->Encode(per_shard[s], &msg);
    if (!r.status.ok()) return r;
    r.encode_seconds += watch.Restart() * straggle;
    r.status = DeliverShard(s, msg, per_shard[s], batch_ctx.valid(), &r);
    if (!r.status.ok()) return r;
  }
  return r;
}

common::Status DistributedTrainer::DeliverShard(
    int s, const compress::EncodedGradient& msg,
    const common::SparseGradient& sent, bool traced, WorkerResult* r) {
  // One delivery loop for both paths. With the fault plan inactive it is
  // the null retry policy: one attempt of the bare message, no framing,
  // no copy, no injector draws. Active, the CRC-framed bytes cross the
  // wire and every attempt may be dropped or corrupted; decisions are
  // pure functions of (seed, batch, worker, server, attempt), so the
  // sequence is replayable and independent of thread interleaving.
  const int w = r->worker;
  const uint64_t gbatch = batches_run_;
  compress::GradientCodec* codec = WorkerCodec(w);
  std::vector<uint8_t> framed;
  if (faults_active_) common::FrameMessage(msg.bytes, &framed);
  // What an intact attempt carries, and how the server takes it in: the
  // bare message decoded as is, or the frame validated before decoding.
  const std::vector<uint8_t>& intact = faults_active_ ? framed : msg.bytes;
  auto receive = [&](const std::vector<uint8_t>& wire,
                     common::SparseGradient* out) -> common::Status {
    if (!faults_active_) return codec->Decode(msg, out);
    compress::EncodedGradient payload;
    SKETCHML_RETURN_IF_ERROR(common::UnframeMessage(wire, &payload.bytes));
    return codec->Decode(payload, out);
  };
  const size_t wire_bytes = intact.size();
  const double transfer = cluster_.network.TransferSeconds(wire_bytes);
  const int attempts = faults_active_ ? injector_.plan().max_retries + 1 : 1;
  r->shard_bytes[s] = wire_bytes;
  common::Stopwatch watch;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Every attempt charges one transfer to this shard's gather link;
    // each retry first waits out an exponential backoff.
    const double backoff =
        attempt > 0 ? injector_.BackoffSeconds(attempt) : 0.0;
    if (attempt > 0) {
      ++r->retries;
      r->retransmit_bytes += wire_bytes;
      r->retry_seconds += backoff + transfer;
    }
    r->shard_link_seconds[s] += transfer;
    r->shard_link_seconds[s] += backoff;
    if (traced) {
      // Modeled wire time of this attempt, one span per attempt so retry
      // amplification is visible in the tree.
      obs::EmitSpan("network", "transfer", obs::NowNs(),
                    static_cast<uint64_t>((transfer + backoff) * 1e9),
                    {{"attempt", static_cast<double>(attempt)},
                     {"bytes", static_cast<double>(wire_bytes)}});
    }
    if (faults_active_ && injector_.ShouldDrop(gbatch, w, s, attempt)) {
      ++r->injected_drops;
      continue;  // Vanished in flight; the sender times out, resends.
    }
    // A mangled attempt carries its own damaged copy of the frame. The
    // copy may be truncated to zero bytes, so the draw, not the copy's
    // size, says which bytes arrive.
    const bool mangled =
        faults_active_ && injector_.ShouldCorrupt(gbatch, w, s, attempt);
    std::vector<uint8_t> corrupted;
    if (mangled) {
      ++r->injected_corruptions;
      corrupted = framed;
      injector_.Corrupt(&corrupted, gbatch, w, s, attempt);
    }
    // Server side: validate the frame, then decode the payload. A
    // detected corruption is NACKed and retried; the CPU spent detecting
    // it is charged to decode like any delivered message. Servers decode
    // in parallel: approximate with the sum over the shards that own keys.
    watch.Restart();
    common::SparseGradient decoded;
    const common::Status received =
        receive(mangled ? corrupted : intact, &decoded);
    r->shard_decode_seconds[s] += watch.Restart() / active_servers_;
    if (!received.ok()) {
      // Nothing corrupts a message under the null policy, so a failed
      // decode there is a codec error, not a retryable NACK.
      if (!faults_active_) return received;
      continue;
    }
    // Keys index the model unchecked downstream (aggregation, optimizer),
    // and aggregation binary-searches each run, so every run must be
    // strictly ascending inside the model. Framing has already ruled out
    // damage in flight, so a violation is a codec error that no retry
    // can mend.
    for (size_t i = 0; i < decoded.size(); ++i) {
      const uint64_t key = decoded[i].key;
      const bool outside = key >= train_->dim();
      if (outside || (i > 0 && key <= decoded[i - 1].key)) {
        return common::Status::CorruptedData(
            "worker " + std::to_string(w) + " shard " + std::to_string(s) +
            ": decoded gradient key " + std::to_string(key) +
            (outside ? " outside model dim " + std::to_string(train_->dim())
                     : " not above the key before it (" +
                           std::to_string(decoded[i - 1].key) + ")"));
      }
    }
    if (metrics_on_) {
      AccumulateRecovery(sent, decoded, &r->recovery_error_l1,
                         &r->recovery_ref_l1);
    }
    r->decoded.insert(r->decoded.end(), decoded.begin(), decoded.end());
    r->run_ends.push_back(r->decoded.size());
    return common::Status::Ok();
  }
  // Retry budget exhausted: the sender's final timeout closes the
  // exchange and the driver drops this worker from the batch.
  const double timeout = injector_.BackoffSeconds(attempts);
  r->shard_link_seconds[s] += timeout;
  r->retry_seconds += timeout;
  ++r->lost;
  r->contributes = false;
  return common::Status::Ok();
}

common::Result<int> DistributedTrainer::ReduceResults(
    const std::vector<WorkerResult>& results, uint64_t* total_nnz,
    EpochStats* stats) {
  // Fixed worker order, so every accumulated stat is independent of
  // execution interleaving. Returns the count of contributing workers.
  const int servers = cluster_.num_servers;
  const int workers = static_cast<int>(results.size());
  int contributing = 0;
  double compute_sum = 0.0, encode_sum = 0.0, decode_sum = 0.0;
  double retry_seconds = 0.0;
  std::vector<double> gather(servers, 0.0);
  const EpochStats before = *stats;  // Batch totals are the deltas.
  for (const WorkerResult& r : results) {
    SKETCHML_RETURN_IF_ERROR(r.status);
    if (r.contributes) ++contributing;
    *total_nnz += r.nnz;
    compute_sum += r.compute_seconds;
    encode_sum += r.encode_seconds;
    stats->injected_faults += r.injected_drops + r.injected_corruptions +
                              (r.straggled ? 1 : 0) + (r.crashed ? 1 : 0);
    stats->retries += r.retries;
    stats->retransmit_bytes += r.retransmit_bytes;
    stats->lost_messages += r.lost;
    retry_seconds += r.retry_seconds;
    double push_seconds = 0.0;  // The worker's total modeled link time.
    for (int s = 0; s < servers; ++s) {
      if (r.shard_bytes[s] == 0) continue;
      ++stats->messages;
      stats->bytes_up += r.shard_bytes[s];
      gather[s] += r.shard_link_seconds[s];
      push_seconds += r.shard_link_seconds[s];
      decode_sum += r.shard_decode_seconds[s];
      metrics_.server_decode[s].Add(r.shard_decode_seconds[s] *
                                    cluster_.codec_scale);
      metrics_.server_bytes[s].Add(static_cast<double>(r.shard_bytes[s]));
    }
    // Per-entity metrics, published here rather than from worker threads
    // (single writer, so snapshots are identical across --threads) with
    // the scale factors EpochStats uses, so labeled slices reconcile with
    // the aggregates exactly. Per-worker slots are indexed by the
    // worker's id in the membership universe, not its slice position.
    const int w = r.worker;
    const double compute =
        r.compute_seconds / workers * cluster_.compute_scale;
    const double encode = r.encode_seconds / workers * cluster_.codec_scale;
    metrics_.worker_compute[w].Add(compute);
    metrics_.worker_encode[w].Add(encode);
    sketch_metrics_.compute.workers[w].Record(compute);
    sketch_metrics_.encode.workers[w].Record(encode);
    sketch_metrics_.push.workers[w].Record(push_seconds);
    metrics_.worker_recovery_err[w].Add(r.recovery_error_l1);
    metrics_.worker_recovery_ref[w].Add(r.recovery_ref_l1);
    fault_metrics_.injected_drop[w].Add(static_cast<double>(r.injected_drops));
    fault_metrics_.injected_corrupt[w].Add(
        static_cast<double>(r.injected_corruptions));
    if (r.straggled) fault_metrics_.injected_straggle[w].Increment();
    if (r.crashed) fault_metrics_.injected_crash[w].Increment();
    fault_metrics_.retries[w].Add(static_cast<double>(r.retries));
    fault_metrics_.retransmit_bytes[w].Add(
        static_cast<double>(r.retransmit_bytes));
    fault_metrics_.lost_messages.Add(static_cast<double>(r.lost));
  }
  if (faults_active_) {
    // Server-shard stalls: a stalled server delays the gather in flight
    // on its link (no effect on a link with no traffic this batch).
    for (int s = 0; s < servers; ++s) {
      if (gather[s] > 0.0 && injector_.ServerStalled(batches_run_, s)) {
        gather[s] += cluster_.faults.stall_seconds;
        ++stats->injected_faults;
        fault_metrics_.injected_stall[s].Increment();
      }
    }
    // Recovery decision: enough whole gradients survived to apply the
    // batch? Below min_quorum the epoch fails with a typed status; a
    // partial-but-quorate batch is applied degraded (the aggregate is
    // rescaled to the mean of the survivors).
    if (contributing < cluster_.faults.min_quorum) {
      return common::Status::Unavailable(
          "quorum failure at batch " + std::to_string(batches_run_) + ": " +
          std::to_string(contributing) + " of " + std::to_string(workers) +
          " workers delivered (min_quorum=" +
          std::to_string(cluster_.faults.min_quorum) + ")");
    }
  }
  if (contributing < workers) ++stats->degraded_batches;
  fault_metrics_.quorum.Set(static_cast<double>(contributing));
  if (obs::TracingEnabled() && retry_seconds > 0.0) {
    // Modeled recovery time (retransmits + backoff), same convention as
    // the "gather" span below. The batch span is still open on this
    // thread, so the analyzer can charge retry amplification to its
    // batch.
    obs::EmitSpan("network", "retry", obs::NowNs(),
                  static_cast<uint64_t>(retry_seconds * 1e9),
                  {{"attempt", static_cast<double>(stats->retries -
                                                   before.retries)},
                   {"bytes", static_cast<double>(stats->retransmit_bytes -
                                                 before.retransmit_bytes)}});
  }

  // Gather happens in parallel across server links: the slowest shard
  // bounds the phase.
  const double gather_seconds = *std::max_element(gather.begin(), gather.end());
  stats->network_seconds += gather_seconds;
  for (int s = 0; s < servers; ++s) metrics_.server_gather[s].Add(gather[s]);
  metrics_.driver_network.Add(gather_seconds);
  if (obs::TracingEnabled() && gather_seconds > 0.0) {
    // Modeled, not measured: the span's duration is what NetworkModel
    // says the gather would have taken on the simulated links.
    obs::EmitSpan("network", "gather", obs::NowNs(),
                  static_cast<uint64_t>(gather_seconds * 1e9),
                  {{"bytes",
                    static_cast<double>(stats->bytes_up - before.bytes_up)}});
  }
  // Workers compute/encode in parallel: charge the mean per worker.
  stats->compute_seconds += compute_sum / workers * cluster_.compute_scale;
  stats->encode_seconds += encode_sum / workers * cluster_.codec_scale;
  stats->decode_seconds += decode_sum * cluster_.codec_scale;
  return contributing;
}

common::SparseGradient DistributedTrainer::AggregateAndApply(
    const std::vector<WorkerResult>& results, int contributing,
    EpochStats* stats) {
  // Average and apply the optimizer step. Aggregation is range-partitioned
  // into key slices so it can run on the pool: a key belongs to exactly
  // one slice and its additions always happen in fixed worker order
  // inside that slice, so every float — and the sorted concatenation of
  // the ascending slices — is bit-identical at any slice or thread count.
  common::Stopwatch watch;
  common::SparseGradient mean_grad;
  {
    obs::TraceSpan aggregate_span("trainer", "aggregate");
    // K-of-W degradation: a degraded batch averages over the surviving
    // workers only (the quorum check guarantees contributing >= 1). Fault
    // free, every worker contributes and this is the usual mean.
    const double inv_workers = 1.0 / static_cast<double>(contributing);
    // A slice takes [lo, hi) out of every decoded run with two binary
    // searches (DeliverShard admits only strictly ascending runs), in
    // worker order and then shard order: the same pairs, in the same
    // order, as a filter over each worker's whole list.
    const auto aggregate_slice = [&](uint64_t lo, uint64_t hi) {
      common::SparseGradient slice;
      for (const WorkerResult& r : results) {
        if (!r.contributes) continue;
        auto run_begin = r.decoded.begin();
        for (const size_t end : r.run_ends) {
          const auto run_end = r.decoded.begin() + end;
          const auto first = std::lower_bound(run_begin, run_end, lo, KeyBelow);
          slice.insert(slice.end(), first,
                       std::lower_bound(first, run_end, hi, KeyBelow));
          run_begin = run_end;
        }
      }
      common::SumByKey(lo, hi - lo, &slice);
      for (auto& pair : slice) pair.value *= inv_workers;
      return slice;
    };
    // DeliverShard admits only keys < dim, so the slices tile [0, dim).
    const uint64_t dim = std::max<uint64_t>(1, train_->dim());
    const uint64_t slices =
        pool_ ? std::min(dim, static_cast<uint64_t>(4 * num_threads_)) : 1;
    for (const common::SparseGradient& slice : MapTasks(
             pool_.get(), slices,
             [&](uint64_t s) {
               return aggregate_slice(dim * s / slices,
                                      dim * (s + 1) / slices);
             },
             [] {})) {
      mean_grad.insert(mean_grad.end(), slice.begin(), slice.end());
    }
  }
  {
    obs::TraceSpan update_span("trainer", "update");
    optimizer_->Apply(mean_grad);
  }
  const double update_elapsed = watch.Restart() * cluster_.codec_scale;
  stats->update_seconds += update_elapsed;
  metrics_.driver_update.Add(update_elapsed);
  // Feed the aggregate into the owning shards' mergeable state (KLL over
  // |value|, MinMaxSketch key->bucket cache) before the broadcast consumes
  // it. Driver-side and serial, so the sketches are a pure function of the
  // update stream.
  if (membership_active_) {
    for (const auto& pair : mean_grad) {
      const int s = ring_.ShardOf(pair.key);
      shard_values_[s].Update(std::abs(pair.value));
      shard_keys_[s].Insert(pair.key, MagnitudeBucket(pair.value));
    }
  }
  return mean_grad;
}

common::Status DistributedTrainer::BroadcastUpdate(
    PendingBroadcast broadcast, EpochStats* stats) {
  // Re-encode the aggregated update with the same codec. With sharding
  // each server broadcasts its key range; shards broadcast in parallel
  // so the slowest bounds the phase. The spans join batch b's tree even
  // though batch b+1's span is open on this thread by now.
  obs::TraceContextScope batch_scope(broadcast.parent);
  const int workers = broadcast.workers;
  double slowest_broadcast = 0.0;
  double driver_encode_seconds = 0.0, driver_decode_seconds = 0.0;
  const uint64_t bytes_down_before = stats->bytes_down;
  {
    obs::TraceSpan broadcast_span("trainer", "broadcast");
    const std::vector<common::SparseGradient> update_shards =
        SplitByShard(std::move(broadcast.update));
    common::Stopwatch watch;
    for (const common::SparseGradient& shard : update_shards) {
      if (shard.empty()) continue;
      watch.Restart();
      compress::EncodedGradient update_msg;
      SKETCHML_RETURN_IF_ERROR(codec_->Encode(shard, &update_msg));
      driver_encode_seconds += watch.Restart() / active_servers_;

      stats->bytes_down +=
          static_cast<uint64_t>(update_msg.size()) * workers;
      // Spark-style torrent broadcast: the server emits the update once
      // and executors propagate copies peer-to-peer in parallel, so the
      // critical path is ~2 link traversals regardless of W (the gather
      // path, by contrast, really does serialize W messages through each
      // server's NIC).
      slowest_broadcast = std::max(
          slowest_broadcast,
          2.0 * cluster_.network.TransferSeconds(update_msg.size()));

      watch.Restart();
      common::SparseGradient worker_copy;
      SKETCHML_RETURN_IF_ERROR(codec_->Decode(update_msg, &worker_copy));
      driver_decode_seconds += watch.Restart();  // Workers decode in parallel.
    }
  }
  stats->network_seconds += slowest_broadcast;
  // The broadcast encode/decode run on the driver; charge them to the
  // stats and the driver slices alike, so
  //   encode = Σ worker{encode} + driver{encode}   (and likewise decode
  // over server + driver slices) reconciles exactly.
  const double driver_encode =
      driver_encode_seconds / workers * cluster_.codec_scale;
  const double driver_decode = driver_decode_seconds * cluster_.codec_scale;
  stats->encode_seconds += driver_encode;
  stats->decode_seconds += driver_decode;
  metrics_.driver_encode.Add(driver_encode);
  metrics_.driver_decode.Add(driver_decode);
  metrics_.driver_network.Add(slowest_broadcast);
  if (obs::TracingEnabled() && slowest_broadcast > 0.0) {
    // Modeled torrent-broadcast time, same convention as "gather".
    obs::EmitSpan("network", "broadcast", obs::NowNs(),
                  static_cast<uint64_t>(slowest_broadcast * 1e9),
                  {{"bytes", static_cast<double>(stats->bytes_down -
                                                 bytes_down_before)}});
  }
  return common::Status::Ok();
}

common::Status DistributedTrainer::FinishEpoch(uint64_t total_nnz,
                                               EpochStats* stats) {
  stats->avg_gradient_nnz =
      stats->messages > 0 ? static_cast<double>(total_nnz) /
                                static_cast<double>(stats->messages)
                          : 0.0;
  stats->train_loss = ml::ComputeMeanLoss(*loss_, optimizer_->weights(),
                                          *train_, config_.lambda);
  if (test_ != nullptr && config_.evaluate_test_loss) {
    stats->test_loss =
        ml::ComputeMeanLoss(*loss_, optimizer_->weights(), *test_, 0.0);
  }
  simulated_seconds_ += stats->TotalSeconds();
  MergeTelemetryTails(/*leaver=*/-1);
  membership_metrics_.active_workers.Set(
      static_cast<double>(directory_.active().size()));
  membership_metrics_.active_servers.Set(static_cast<double>(active_servers_));
  // Epoch checkpoint: seal the full training state so a later
  // below-quorum attempt can roll back here instead of failing the run.
  if (cluster_.membership.CheckpointsEnabled() &&
      epochs_run_ % cluster_.membership.checkpoint_every == 0) {
    SKETCHML_RETURN_IF_ERROR(SaveCheckpoint(&checkpoint_));
    stats->checkpoint_bytes = checkpoint_.size();
    membership_metrics_.checkpoint_bytes.Add(
        static_cast<double>(checkpoint_.size()));
  }
  // Rollbacks consumed since the last *reported* epoch, read only here —
  // at the end of a successful attempt — so a chain of failed retries
  // accumulates into the epoch that finally lands instead of each failed
  // attempt swallowing its predecessor's count.
  stats->rollbacks = pending_rollbacks_;
  pending_rollbacks_ = 0;
  membership_metrics_.rollbacks.Add(static_cast<double>(stats->rollbacks));
  PublishEpochStats(*stats);
  return common::Status::Ok();
}

void DistributedTrainer::MergeTelemetryTails(int leaver) {
  // Cross-node telemetry aggregation: serialize worker window tails and
  // merge them into the cluster-wide slots (KLL mergeability as the
  // aggregation primitive). At the epoch boundary (leaver < 0) every
  // worker's tail is merged and then every window retires into the ring.
  // A leaving worker's tail is drained instead, so its samples survive
  // the departure without being merged twice. Payload sizes count in
  // telemetry/* only — never charged to the NetworkModel — so enabling
  // metrics cannot perturb the modeled timings or the training output.
  if (!metrics_on_) return;
  auto& sketches = obs::SketchHistogramRegistry::Global();
  for (const SketchTelemetry::Lane* lane :
       {&sketch_metrics_.compute, &sketch_metrics_.encode,
        &sketch_metrics_.push}) {
    for (int w = 0; w < static_cast<int>(lane->workers.size()); ++w) {
      if (leaver >= 0 && w != leaver) continue;
      const obs::SketchHistogram& tail = lane->workers[w];
      const std::vector<uint8_t> payload = leaver >= 0
                                               ? sketches.DrainTail(tail)
                                               : sketches.SerializeTail(tail);
      if (payload.empty()) continue;
      sketch_metrics_.merges.Increment();
      sketch_metrics_.merge_bytes.Add(static_cast<double>(payload.size()));
      const common::Status merged = sketches.MergeSerialized(
          lane->cluster, payload.data(), payload.size());
      if (!merged.ok()) {
        SKETCHML_LOG(Warning)
            << "telemetry sketch merge failed: " << merged.ToString();
      }
    }
  }
  if (leaver < 0) sketches.AdvanceWindows();
}

common::Result<EpochStats> DistributedTrainer::RunEpochAttempt() {
  const size_t n = train_->size();
  const size_t batch_size = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * config_.batch_ratio));
  EpochStats stats;
  stats.epoch = ++epochs_run_;
  if (membership_active_) {
    // Epoch-boundary re-partitioning: servers scale with the fleet, and
    // shard state moves via mergeable-sketch handoff.
    SKETCHML_RETURN_IF_ERROR(ReconfigureShards(&stats));
  }
  uint64_t total_nnz = 0;
  obs::TraceSpan epoch_span("trainer", "epoch");
  epoch_span.Arg("epoch", static_cast<double>(stats.epoch));

  // Batch b's broadcast waits here and runs on this thread while batch
  // b+1's workers run on the pool. Its additions to `stats` and the
  // driver metrics still land between batch b's aggregate and batch
  // b+1's reduce, so every float sum keeps its order. It must also run
  // before anything else that adds to them (membership events) and
  // before the epoch ends (checkpoints serialize codec_).
  std::optional<PendingBroadcast> pending;
  const auto run_pending_broadcast = [&]() -> common::Status {
    if (!pending) return common::Status::Ok();
    PendingBroadcast broadcast = std::move(*pending);
    pending.reset();
    return BroadcastUpdate(std::move(broadcast), &stats);
  };

  // Per batch: fleet -> workers (compute, split, encode, deliver, decode;
  // meanwhile the previous batch's broadcast) -> reduce -> aggregate and
  // apply.
  for (size_t batch_start = 0; batch_start < n; batch_start += batch_size) {
    const size_t batch_end = std::min(n, batch_start + batch_size);
    // Fleet: membership events fire at batch boundaries, before the
    // batch partitions its ranges. Decisions key on the global batch
    // counter, so churn replays identically across epochs and thread
    // counts; an inactive plan fires none.
    std::vector<MembershipEvent> events;
    directory_.ApplyBatch(batches_run_, &events);
    if (!events.empty()) SKETCHML_RETURN_IF_ERROR(run_pending_broadcast());
    for (const MembershipEvent& event : events) {
      ApplyMembershipEvent(event, &stats);
    }

    // Causal root of this batch. Each worker chain (compute → encode →
    // per-attempt transfer → decode) adopts this context on whatever
    // thread executes it, so the batch reconstructs as one rooted tree
    // even across pool threads. Sampling keys on the *global* batch
    // counter, so the sampled set is deterministic across thread counts;
    // an invalid context simply elides the causal spans and never
    // touches the measured phases or byte streams.
    std::optional<obs::TraceSpan> batch_span;
    if (obs::TracingEnabled() &&
        (config_.trace_sample_every <= 1 ||
         batches_run_ % static_cast<uint64_t>(config_.trace_sample_every) ==
             0)) {
      batch_span.emplace("trainer", "batch");
      batch_span->Arg("batch", static_cast<double>(batches_run_));
    }
    const obs::SpanContext batch_ctx =
        batch_span ? batch_span->context() : obs::SpanContext{};

    common::Status broadcast_status;
    const std::vector<WorkerResult> results =
        RunWorkers(batch_start, batch_end, batch_ctx,
                   [&] { broadcast_status = run_pending_broadcast(); });
    SKETCHML_RETURN_IF_ERROR(broadcast_status);
    SKETCHML_ASSIGN_OR_RETURN(const int contributing,
                              ReduceResults(results, &total_nnz, &stats));
    pending = PendingBroadcast{
        AggregateAndApply(results, contributing, &stats),
        static_cast<int>(results.size()),
        batch_ctx.valid() ? batch_ctx : epoch_span.context()};
    ++stats.num_batches;
    // Global batch index: the injector keys every decision on it, so the
    // fault sequence is a function of (plan seed, lifetime batch number)
    // and replays identically across epochs and thread counts.
    ++batches_run_;
  }
  SKETCHML_RETURN_IF_ERROR(run_pending_broadcast());
  SKETCHML_RETURN_IF_ERROR(FinishEpoch(total_nnz, &stats));
  return stats;
}

common::Result<EpochStats> DistributedTrainer::RunEpoch() {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  int attempts = 0;
  while (true) {
    common::Result<EpochStats> result = RunEpochAttempt();
    if (result.ok()) return result;
    // Only a quorum failure is recoverable, and only while a sealed
    // checkpoint exists and the per-epoch retry budget holds out.
    if (result.status().code() != common::StatusCode::kUnavailable ||
        checkpoint_.empty() || attempts >= cluster_.membership.max_rollbacks) {
      return result;
    }
    ++attempts;
    ++rollbacks_used_;
    ++pending_rollbacks_;
    // Roll the model and every codec lane back to the last epoch
    // boundary. The global batch counter is NOT rewound (for_rollback):
    // the retry draws fresh fault/membership decisions instead of
    // replaying the exact failure that killed this attempt. The counter
    // stopped *on* the failed batch's index (the failure aborts before
    // the end-of-batch increment), so step past it — otherwise the
    // retry's first batch would redraw the very decisions that just
    // failed quorum, and every retry would die at the same index.
    ++batches_run_;
    SKETCHML_RETURN_IF_ERROR(
        RestoreFromBlob(checkpoint_, /*for_rollback=*/true));
    SKETCHML_LOG(Warning) << "epoch " << epochs_run_ + 1
                          << ": rolled back to checkpoint (retry " << attempts
                          << " of " << cluster_.membership.max_rollbacks
                          << "): " << result.status().message();
  }
}

void DistributedTrainer::ApplyMembershipEvent(const MembershipEvent& event,
                                              EpochStats* stats) {
  switch (event.kind) {
    case MembershipEvent::kJoin: {
      ++stats->joins;
      membership_metrics_.joins.Increment();
      // Warm start, step 1: the joiner pulls the current dense weights
      // over the wire — real protocol traffic, charged to the network.
      const uint64_t sync_bytes =
          static_cast<uint64_t>(optimizer_->weights().size()) * sizeof(double);
      stats->sync_bytes += sync_bytes;
      stats->network_seconds += cluster_.network.TransferSeconds(sync_bytes);
      membership_metrics_.sync_bytes.Add(static_cast<double>(sync_bytes));
      // Warm start, step 2: adopt the oldest escrowed codec-lane state
      // (error-feedback residual + stream position) banked by an earlier
      // leaver, so accumulated correction signal survives churn instead
      // of resetting to zero.
      if (!residual_escrow_.empty() && !worker_codecs_.empty()) {
        const std::vector<uint8_t> blob = std::move(residual_escrow_.front());
        residual_escrow_.pop_front();
        common::ByteReader reader(blob);
        const common::Status restored =
            worker_codecs_[event.worker]->RestoreState(&reader);
        if (restored.ok()) {
          ChargeHandoff(blob.size(), stats);
        } else {
          SKETCHML_LOG(Warning)
              << "worker " << event.worker
              << " rejected escrowed codec state: " << restored.ToString();
        }
      }
      break;
    }
    case MembershipEvent::kLeave:
    case MembershipEvent::kDepart: {
      const bool leave = event.kind == MembershipEvent::kLeave;
      ++(leave ? stats->leaves : stats->departs);
      (leave ? membership_metrics_.leaves : membership_metrics_.departs)
          .Increment();
      // Graceful handoff, step 1: bank the leaver's codec-lane state
      // (residual + RNG position) in the escrow for a future joiner.
      // The blob crosses the wire to the driver, so it is charged.
      if (!worker_codecs_.empty()) {
        common::ByteWriter writer;
        worker_codecs_[event.worker]->SaveState(&writer);
        std::vector<uint8_t> blob = writer.TakeBuffer();
        if (!blob.empty()) {
          ChargeHandoff(blob.size(), stats);
          residual_escrow_.push_back(std::move(blob));
        }
      }
      // Graceful handoff, step 2: drain the leaver's labeled telemetry
      // tail into the cluster-wide slots so its latency samples survive
      // the departure (the epoch-boundary merge would otherwise lose
      // whatever the window accumulated since the last boundary).
      MergeTelemetryTails(event.worker);
      break;
    }
  }
}

void DistributedTrainer::ChargeHandoff(size_t bytes, EpochStats* stats) {
  stats->handoff_bytes += bytes;
  stats->network_seconds += cluster_.network.TransferSeconds(bytes);
  membership_metrics_.handoff_bytes.Add(static_cast<double>(bytes));
}

common::Status DistributedTrainer::ReconfigureShards(EpochStats* stats) {
  const int target =
      ActiveServerCount(cluster_.num_servers,
                        static_cast<int>(directory_.active().size()),
                        cluster_.num_workers);
  if (target == active_servers_) return common::Status::Ok();

  // Serialize a shard's mergeable state exactly as it would cross the
  // wire: KLL value sketch then MinMax key cache, one framed blob.
  const auto serialize_shard = [this](int s) {
    common::ByteWriter writer(shard_values_[s].SerializedSize() +
                              shard_keys_[s].SerializedSize());
    shard_values_[s].Serialize(&writer);
    shard_keys_[s].Serialize(&writer);
    return writer.TakeBuffer();
  };
  // Deserialize a transferred blob back into (values, keys) and merge it
  // into the destination shard — the round-trip is deliberate: the
  // destination only ever sees what survived serialization, exactly like
  // a real shard-to-shard transfer.
  const auto merge_blob = [this](const std::vector<uint8_t>& blob,
                                 int dest) -> common::Status {
    common::ByteReader reader(blob);
    sketch::KllSketch values = EmptyShardValues();
    SKETCHML_RETURN_IF_ERROR(
        sketch::KllSketch::Deserialize(&reader, &values, kShardSketchSeed));
    sketch::MinMaxSketch keys(kShardKeyRows, kShardKeyCols, kShardSketchSeed);
    SKETCHML_RETURN_IF_ERROR(sketch::MinMaxSketch::Deserialize(&reader, &keys));
    shard_values_[dest].Merge(values);
    return shard_keys_[dest].Merge(keys);
  };

  if (target < active_servers_) {
    // Scale-down: each retiring shard serializes its state and ships it
    // to a surviving shard, which merges it (mergeability makes this a
    // transfer, not a rebuild). State is conserved: nothing the retiring
    // shards learned is lost.
    for (int s = target; s < active_servers_; ++s) {
      const std::vector<uint8_t> blob = serialize_shard(s);
      ChargeHandoff(blob.size(), stats);
      SKETCHML_RETURN_IF_ERROR(merge_blob(blob, s % target));
      // Reset the retired shard so a later scale-up starts it fresh.
      shard_values_[s] = EmptyShardValues();
      shard_keys_[s] =
          sketch::MinMaxSketch(kShardKeyRows, kShardKeyCols, kShardSketchSeed);
    }
  } else {
    // Scale-up: each new shard bootstraps from an existing one (the
    // consistent-hash ring moves only boundary keys to it, so the donor's
    // state is a superset of what the new shard will serve).
    for (int s = active_servers_; s < target; ++s) {
      const std::vector<uint8_t> blob = serialize_shard(s % active_servers_);
      ChargeHandoff(blob.size(), stats);
      SKETCHML_RETURN_IF_ERROR(merge_blob(blob, s));
    }
  }
  active_servers_ = target;
  ring_.Rebuild(target);
  ++stats->reconfigurations;
  membership_metrics_.reconfigurations.Increment();
  return common::Status::Ok();
}

void DistributedTrainer::BuildCheckpointPayload(
    std::vector<uint8_t>* payload) const {
  common::ByteWriter writer;
  writer.WriteVarint(static_cast<uint64_t>(epochs_run_));
  writer.WriteVarint(batches_run_);
  writer.WriteDouble(simulated_seconds_);
  // Optimizer kind byte: restore validates it against this trainer's
  // config instead of mis-parsing an SGD blob as Adam state.
  writer.WriteU8(config_.use_adam ? 1 : 0);
  optimizer_->SaveState(&writer);
  // Codec lanes, each length-prefixed so a lane that saves nothing (a
  // stateless codec) round-trips as an empty blob.
  writer.WriteVarint(static_cast<uint64_t>(worker_codecs_.size()));
  const auto write_lane = [&writer](const compress::GradientCodec& codec) {
    common::ByteWriter lane;
    codec.SaveState(&lane);
    const std::vector<uint8_t> blob = lane.TakeBuffer();
    writer.WriteVarint(static_cast<uint64_t>(blob.size()));
    writer.WriteBytes(blob);
  };
  for (const auto& codec : worker_codecs_) write_lane(*codec);
  write_lane(*codec_);  // Driver/broadcast lane.
  *payload = writer.TakeBuffer();
}

common::Status DistributedTrainer::SaveCheckpoint(
    std::vector<uint8_t>* out) const {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  std::vector<uint8_t> payload;
  BuildCheckpointPayload(&payload);
  SealCheckpoint(payload, out);
  return common::Status::Ok();
}

common::Status DistributedTrainer::RestoreCheckpoint(
    const std::vector<uint8_t>& checkpoint) {
  SKETCHML_RETURN_IF_ERROR(init_status_);
  return RestoreFromBlob(checkpoint, /*for_rollback=*/false);
}

common::Status DistributedTrainer::RestoreFromBlob(
    const std::vector<uint8_t>& checkpoint, bool for_rollback) {
  std::vector<uint8_t> payload;
  SKETCHML_RETURN_IF_ERROR(OpenCheckpoint(checkpoint, &payload));
  common::ByteReader reader(payload);
  uint64_t epochs = 0;
  uint64_t batches = 0;
  double simulated = 0.0;
  uint8_t optimizer_kind = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&epochs));
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&batches));
  SKETCHML_RETURN_IF_ERROR(reader.ReadDouble(&simulated));
  SKETCHML_RETURN_IF_ERROR(reader.ReadU8(&optimizer_kind));
  if ((optimizer_kind != 0) != config_.use_adam) {
    return common::Status::CorruptedData(
        "checkpoint optimizer kind does not match this trainer's config");
  }
  SKETCHML_RETURN_IF_ERROR(optimizer_->RestoreState(&reader));
  uint64_t lanes = 0;
  SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&lanes));
  if (lanes != worker_codecs_.size()) {
    return common::Status::CorruptedData(
        "checkpoint codec lane count (" + std::to_string(lanes) +
        ") does not match this trainer (" +
        std::to_string(worker_codecs_.size()) + ")");
  }
  const auto restore_lane =
      [&reader](compress::GradientCodec* codec) -> common::Status {
    uint64_t size = 0;
    SKETCHML_RETURN_IF_ERROR(reader.ReadVarint(&size));
    if (size > reader.remaining()) {
      return common::Status::CorruptedData("checkpoint codec lane truncated");
    }
    std::vector<uint8_t> blob(static_cast<size_t>(size));
    if (size > 0) {
      SKETCHML_RETURN_IF_ERROR(reader.ReadRaw(blob.data(), blob.size()));
    }
    common::ByteReader lane(blob);
    return codec->RestoreState(&lane);
  };
  for (const auto& codec : worker_codecs_) {
    SKETCHML_RETURN_IF_ERROR(restore_lane(codec.get()));
  }
  SKETCHML_RETURN_IF_ERROR(restore_lane(codec_.get()));
  // All sections validated and applied; now the counters. A rollback
  // rewinds the epoch number (the retried epoch keeps its index) but
  // NOT the monotonic batch counter or the accumulated simulated time —
  // the retry must draw fresh fault/membership decisions.
  epochs_run_ = static_cast<int>(epochs);
  if (!for_rollback) {
    batches_run_ = batches;
    simulated_seconds_ = simulated;
  }
  return common::Status::Ok();
}

common::Result<std::vector<EpochStats>> DistributedTrainer::Run(int epochs) {
  if (epochs < 0) {
    return common::Status::InvalidArgument("Run: epochs must be >= 0");
  }
  std::vector<EpochStats> all;
  all.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    SKETCHML_ASSIGN_OR_RETURN(EpochStats stats, RunEpoch());
    all.push_back(stats);
  }
  return all;
}

}  // namespace sketchml::dist
