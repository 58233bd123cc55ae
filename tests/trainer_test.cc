#include "dist/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "common/obs.h"
#include "compress/raw_codec.h"
#include "core/codec_factory.h"
#include "dist/network_model.h"
#include "ml/loss.h"
#include "ml/synthetic.h"

namespace sketchml::dist {
namespace {

struct Fixture {
  Fixture() {
    ml::SyntheticConfig config;
    config.num_instances = 2000;
    config.dim = 1 << 14;
    config.avg_nnz = 30;
    config.seed = 17;
    ml::Dataset all = ml::GenerateSynthetic(config);
    auto [tr, te] = all.Split(0.25);
    train = std::make_unique<ml::Dataset>(std::move(tr));
    test = std::make_unique<ml::Dataset>(std::move(te));
    loss = ml::MakeLoss("lr");
  }

  std::unique_ptr<ml::Dataset> train, test;
  std::unique_ptr<ml::Loss> loss;
};

std::unique_ptr<compress::GradientCodec> Codec(const std::string& name) {
  return std::move(core::MakeCodec(name)).value();
}

TEST(NetworkModelTest, TransferSecondsIsLinearInBytes) {
  NetworkModel net{1.0, 0.0, 1.0};  // 1 Gbps, no latency.
  EXPECT_NEAR(net.TransferSeconds(125'000'000), 1.0, 1e-9);  // 1 Gbit.
  NetworkModel congested{10.0, 0.0, 8.0};
  EXPECT_NEAR(congested.TransferSeconds(125'000'000), 0.8, 1e-9);
}

TEST(NetworkModelTest, LatencyDominatesSmallMessages) {
  NetworkModel net = NetworkModel::Wan();
  const double t = net.TransferSeconds(10);
  EXPECT_NEAR(t, net.latency_seconds, 1e-4);
}

TEST(TrainerTest, RunsAnEpochAndReportsStats) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const EpochStats& stats = *result;
  EXPECT_EQ(stats.epoch, 1);
  EXPECT_EQ(stats.num_batches, 10u);  // batch_ratio 0.1.
  EXPECT_EQ(stats.messages, 40u);     // 4 workers x 10 batches.
  EXPECT_GT(stats.bytes_up, 0u);
  EXPECT_GT(stats.bytes_down, 0u);
  EXPECT_GT(stats.network_seconds, 0.0);
  EXPECT_GT(stats.compute_seconds, 0.0);
  EXPECT_GT(stats.train_loss, 0.0);
  EXPECT_GT(stats.test_loss, 0.0);
  EXPECT_GT(stats.avg_gradient_nnz, 0.0);
  EXPECT_GT(stats.AvgCpuPercent(), 0.0);
  EXPECT_LE(stats.AvgCpuPercent(), 100.0);
}

TEST(TrainerTest, LossDecreasesOverEpochs) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;  // Noisy small batches; see TrainerConfig.
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.Run(5);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss);
}

TEST(TrainerTest, SketchMlConvergesToo) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("sketchml"), cluster, config);
  auto result = trainer.Run(5);
  ASSERT_TRUE(result.ok());
  const auto& stats = *result;
  EXPECT_LT(stats.back().train_loss, stats.front().train_loss * 1.02);
  EXPECT_LT(stats.back().train_loss, 0.8);  // Meaningfully below log(2).
}

TEST(TrainerTest, SketchMlMovesFewerBytesThanRaw) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  TrainerConfig config;
  uint64_t bytes[2];
  int i = 0;
  for (const char* name : {"adam-double", "sketchml"}) {
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec(name), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    bytes[i++] = result->bytes_up + result->bytes_down;
  }
  // At this scaled-down gradient size (~1k nonzeros per message) the
  // fixed 8q-byte bucket-means header limits the rate; paper-scale
  // gradients reach 5-7x (see SketchMlCodecTest.CompressionRate*).
  EXPECT_LT(bytes[1], bytes[0] / 2);
}

TEST(TrainerTest, SimulatedTimeAccumulates) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  ASSERT_TRUE(trainer.RunEpoch().ok());
  const double after_one = trainer.simulated_seconds();
  ASSERT_TRUE(trainer.RunEpoch().ok());
  EXPECT_GT(trainer.simulated_seconds(), after_one);
  EXPECT_EQ(trainer.epochs_run(), 2);
}

TEST(TrainerTest, NullCodecDefaultsToRaw) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(), nullptr,
                             cluster, TrainerConfig());
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok());
  // Raw double: >= 12 bytes per pair on the wire.
  EXPECT_GT(result->AvgMessageBytes(), 12.0 * 10);
}

TEST(TrainerTest, MoreWorkersMoveMoreBytesThroughDriver) {
  // The Figure 11 mechanism: the driver link carries W messages per
  // batch, so total communication grows with W while per-worker compute
  // shrinks — eventually communication dominates for raw gradients.
  Fixture f;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  uint64_t bytes[2];
  double net_seconds[2];
  int i = 0;
  for (int workers : {2, 8}) {
    ClusterConfig cluster;
    cluster.num_workers = workers;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    bytes[i] = result->bytes_up + result->bytes_down;
    net_seconds[i] = result->network_seconds;
    ++i;
  }
  EXPECT_GT(bytes[1], bytes[0]);
  EXPECT_GT(net_seconds[1], net_seconds[0]);
}

TEST(TrainerTest, SmallerBatchesYieldSparserGradients) {
  // Figure 8(d): gradient sparsity shrinks with the batch ratio.
  Fixture f;
  double nnz[2];
  int i = 0;
  for (double ratio : {0.1, 0.01}) {
    ClusterConfig cluster;
    cluster.num_workers = 2;
    TrainerConfig config;
    config.batch_ratio = ratio;
    config.evaluate_test_loss = false;
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    nnz[i++] = result->avg_gradient_nnz;
  }
  EXPECT_LT(nnz[1], nnz[0]);
}

TEST(TrainerTest, ShardedParameterServerCutsGatherTime) {
  // With S server shards the gather phase parallelizes across S links,
  // so raw-gradient epochs get dramatically cheaper network time while
  // total bytes stay in the same ballpark.
  Fixture f;
  TrainerConfig config;
  config.evaluate_test_loss = false;
  double net_seconds[2];
  uint64_t bytes[2];
  int i = 0;
  for (int servers : {1, 8}) {
    ClusterConfig cluster;
    cluster.num_workers = 8;
    cluster.num_servers = servers;
    // Scale the link down so transfer time is byte-dominated (sharding
    // cannot help with per-message latency, only with serialized bytes).
    cluster.network = NetworkModel::Scaled(NetworkModel::Lab1Gbps(), 840.0);
    DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                               Codec("adam-double"), cluster, config);
    auto result = trainer.RunEpoch();
    ASSERT_TRUE(result.ok());
    net_seconds[i] = result->network_seconds;
    bytes[i] = result->bytes_up;
    ++i;
  }
  EXPECT_LT(net_seconds[1], net_seconds[0] * 0.5);
  EXPECT_LT(bytes[1], bytes[0] * 3 / 2);  // Only framing overhead grows.
}

TEST(TrainerTest, ShardedTrainingStillConverges) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 4;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("sketchml"), cluster, config);
  auto result = trainer.Run(4);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->back().train_loss, 0.8);
}

TEST(TrainerTest, SingleServerMatchesLegacyMessageCount) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 1;
  TrainerConfig config;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->messages, 40u);  // 4 workers x 10 batches.
}

// ---------------------------------------------------------------------------
// TrainerConfig validation: bad knobs surface as InvalidArgument from
// RunEpoch/Run instead of training on garbage.

/// Expects a trainer built with `config` to refuse to train.
void ExpectRejected(const Fixture& f, const TrainerConfig& config) {
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument)
      << result.status().ToString();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TrainerConfigValidationTest, RejectsBatchRatioOutsideUnitInterval) {
  Fixture f;
  for (double ratio : {kNaN, -0.5, 0.0, 1.5, kInf}) {
    SCOPED_TRACE(ratio);
    TrainerConfig config;
    config.batch_ratio = ratio;
    ExpectRejected(f, config);
  }
}

TEST(TrainerConfigValidationTest, RejectsNonPositiveLearningRate) {
  Fixture f;
  for (double rate : {kNaN, 0.0, -0.1, kInf}) {
    SCOPED_TRACE(rate);
    TrainerConfig config;
    config.learning_rate = rate;
    ExpectRejected(f, config);
  }
}

TEST(TrainerConfigValidationTest, RejectsNegativeOrNonFiniteLambda) {
  Fixture f;
  for (double lambda : {kNaN, -0.01, kInf}) {
    SCOPED_TRACE(lambda);
    TrainerConfig config;
    config.lambda = lambda;
    ExpectRejected(f, config);
  }
}

TEST(TrainerConfigValidationTest, RejectsNonPositiveAdamEpsilon) {
  Fixture f;
  for (double epsilon : {kNaN, 0.0, -1e-8, kInf}) {
    SCOPED_TRACE(epsilon);
    TrainerConfig config;
    config.adam_epsilon = epsilon;
    ExpectRejected(f, config);
  }
}

TEST(TrainerConfigValidationTest, SgdIgnoresAdamEpsilon) {
  Fixture f;
  TrainerConfig config;
  config.use_adam = false;
  config.adam_epsilon = kNaN;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  EXPECT_TRUE(trainer.RunEpoch().ok());
}

TEST(TrainerConfigValidationTest, RunRejectsNegativeEpochs) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, TrainerConfig());
  auto result = trainer.Run(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(trainer.epochs_run(), 0);
  auto none = trainer.Run(0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(TrainerConfigValidationTest, FullBatchRatioStillRuns) {
  // batch_ratio = 1.0 is the closed end of (0, 1]: one batch per epoch.
  Fixture f;
  TrainerConfig config;
  config.batch_ratio = 1.0;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             Codec("adam-double"), cluster, config);
  auto result = trainer.RunEpoch();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_batches, 1u);
  EXPECT_EQ(result->messages, 2u);
}

// ---------------------------------------------------------------------------
// Output pin: an FNV-1a digest over everything deterministic a run emits.

/// FNV-1a (64-bit) over little-endian field bytes.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ULL;
    }
  }
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void F64(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

struct DigestCase {
  const char* name;
  ClusterConfig cluster;
  int epochs;
  uint64_t plain;  // Stats + final weights.
  uint64_t obs;    // The same run with metrics on, plus its metric fold.
};

std::vector<DigestCase> DigestCases() {
  std::vector<DigestCase> cases;
  ClusterConfig one;
  one.num_workers = 4;
  cases.push_back({"fault-free, 1 server", one, 2,
                   0xe62231889864d300ULL, 0x53f0068dddc68b26ULL});

  ClusterConfig three = one;
  three.num_servers = 3;
  cases.push_back({"fault-free, 3 servers", three, 2,
                   0x3fae1f06c3fc39d8ULL, 0xd0cf730e704d5da4ULL});

  ClusterConfig faulty = one;
  faulty.num_servers = 2;
  faulty.faults.seed = 2;
  faulty.faults.drop_prob = 0.15;
  faulty.faults.corrupt_prob = 0.15;
  faulty.faults.straggle_prob = 0.1;
  faulty.faults.crash_prob = 0.03;
  faulty.faults.stall_prob = 0.1;
  faulty.faults.max_retries = 1;
  faulty.faults.min_quorum = 2;
  cases.push_back({"faults, degraded quorum, 2 servers", faulty, 2,
                   0x560fc4a0c2f8420cULL, 0xca8baeadf8236106ULL});

  ClusterConfig elastic = one;
  elastic.num_servers = 4;
  elastic.membership.seed = 5;
  elastic.membership.join_prob = 0.05;
  elastic.membership.leave_prob = 0.05;
  elastic.membership.depart_prob = 0.02;
  elastic.membership.max_workers = 6;
  elastic.membership.min_workers = 2;
  elastic.membership.checkpoint_every = 1;
  elastic.membership.max_rollbacks = 4;
  elastic.faults.seed = 4;
  elastic.faults.crash_prob = 0.08;
  elastic.faults.min_quorum = 2;
  cases.push_back({"churn, checkpoints, rollback", elastic, 4,
                   0xf53abc2cfb038ba1ULL, 0x7de1c0949c04ba42ULL});
  return cases;
}

/// Folds every integer EpochStats field, the bit patterns of the losses
/// and the mean nnz, and the final weights of one run. Measured seconds
/// are left out: they are wall time. Also sums the stats into `total`
/// so callers can check the case exercised what it claims to, and keeps
/// the per-epoch stats in `epochs` when given.
uint64_t RunDigest(const Fixture& f, const DigestCase& c, int threads,
                   EpochStats* total,
                   std::vector<EpochStats>* epochs = nullptr) {
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  config.num_threads = threads;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             Codec("sketchml"), c.cluster, config);
  auto run = trainer.Run(c.epochs);
  EXPECT_TRUE(run.ok()) << c.name << ": " << run.status().ToString();
  if (!run.ok()) return 0;
  Fnv1a h;
  for (const EpochStats& s : *run) {
    for (uint64_t field :
         {static_cast<uint64_t>(s.epoch), s.bytes_up, s.bytes_down,
          s.messages, s.injected_faults, s.retries, s.retransmit_bytes,
          s.lost_messages, s.degraded_batches, s.joins, s.leaves, s.departs,
          s.handoff_bytes, s.sync_bytes, s.reconfigurations, s.rollbacks,
          s.checkpoint_bytes, static_cast<uint64_t>(s.num_batches)}) {
      h.U64(field);
    }
    h.F64(s.train_loss);
    h.F64(s.test_loss);
    h.F64(s.avg_gradient_nnz);
  }
  for (double w : trainer.optimizer().weights()) h.F64(w);
  *total = Aggregate(*run);
  if (epochs != nullptr) *epochs = *run;
  return h.value();
}

/// Folds the name and value bits of every nonzero counter or gauge in
/// the families whose values are modeled rather than measured: fault and
/// retry accounting, membership, per-shard gather bytes, recovery error
/// and the quorum gauge. Zero values are skipped (as in metric dumps), so
/// the fold depends only on this run, not on what earlier runs in the
/// process registered.
uint64_t MetricDigest(const obs::MetricsSnapshot& snap) {
  const auto pinned = [](const std::string& name) {
    for (const char* prefix :
         {"fault/", "net/", "membership/", "trainer/gather_bytes",
          "trainer/recovery_", "trainer/quorum"}) {
      if (name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  std::vector<std::pair<std::string, double>> values;
  for (const auto& c : snap.counters) {
    if (pinned(c.name) && c.value != 0.0) values.emplace_back(c.name, c.value);
  }
  for (const auto& g : snap.gauges) {
    if (pinned(g.name) && g.value != 0.0) values.emplace_back(g.name, g.value);
  }
  std::sort(values.begin(), values.end());
  Fnv1a h;
  for (const auto& [name, value] : values) {
    h.Str(name);
    h.F64(value);
  }
  return h.value();
}

bool IsFaultOrMembershipName(const std::string& name) {
  for (const char* prefix :
       {"fault/", "net/", "membership/", "trainer/quorum"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(TrainerTest, EpochDigestIsPinned) {
  // Any change to bytes, losses, weights, fault or membership accounting
  // on these four paths moves a digest. Every case must give the same
  // digest at 1 and 4 threads, and with metrics on or off.
  Fixture f;
  const bool was_enabled = obs::MetricsEnabled();
  for (const DigestCase& c : DigestCases()) {
    for (int threads : {1, 4}) {
      EpochStats total;
      EXPECT_EQ(RunDigest(f, c, threads, &total), c.plain)
          << c.name << " at " << threads << " threads";
      if (c.cluster.faults.drop_prob > 0.0) {
        EXPECT_GT(total.degraded_batches, 0u) << c.name;
        EXPECT_GT(total.retries, 0u) << c.name;
      }
      if (c.cluster.membership.Active()) {
        EXPECT_GT(total.reconfigurations, 0u) << c.name;
        EXPECT_GT(total.rollbacks, 0u) << c.name;
        EXPECT_GT(total.checkpoint_bytes, 0u) << c.name;
      }

      obs::SetMetricsEnabled(true);
      obs::MetricsRegistry::Global().Reset();
      Fnv1a h;
      h.U64(RunDigest(f, c, threads, &total));
      const auto snap = obs::MetricsRegistry::Global().Snapshot();
      h.U64(MetricDigest(snap));
      if (!c.cluster.faults.Active() && !c.cluster.membership.Active()) {
        // The fault-free cases run first, and no other case in this
        // binary enables faults or churn, so a fault or membership name
        // registered by now was registered by a run with the layer off.
        for (const auto& counter : snap.counters) {
          EXPECT_FALSE(IsFaultOrMembershipName(counter.name)) << counter.name;
        }
        for (const auto& gauge : snap.gauges) {
          EXPECT_FALSE(IsFaultOrMembershipName(gauge.name)) << gauge.name;
        }
      }
      obs::MetricsRegistry::Global().Reset();
      obs::SetMetricsEnabled(was_enabled);
      EXPECT_EQ(h.value(), c.obs)
          << c.name << " with metrics on at " << threads << " threads";
    }
  }
}

/// Compares every EpochStats field except the four measured CPU phases
/// (wall time). network_seconds is a modeled float sum, so equal bits
/// mean the gather, broadcast and membership transfers were added in
/// the same order.
void ExpectSameModeledStats(const EpochStats& a, const EpochStats& b,
                            const std::string& where) {
  EpochStats x = a, y = b;
  for (EpochStats* s : {&x, &y}) {
    s->compute_seconds = s->encode_seconds = 0.0;
    s->decode_seconds = s->update_seconds = 0.0;
  }
  EXPECT_EQ(x.epoch, y.epoch) << where;
  EXPECT_EQ(x.network_seconds, y.network_seconds) << where;  // Bit-exact.
  EXPECT_EQ(x.bytes_up, y.bytes_up) << where;
  EXPECT_EQ(x.bytes_down, y.bytes_down) << where;
  EXPECT_EQ(x.messages, y.messages) << where;
  EXPECT_EQ(x.injected_faults, y.injected_faults) << where;
  EXPECT_EQ(x.retries, y.retries) << where;
  EXPECT_EQ(x.retransmit_bytes, y.retransmit_bytes) << where;
  EXPECT_EQ(x.lost_messages, y.lost_messages) << where;
  EXPECT_EQ(x.degraded_batches, y.degraded_batches) << where;
  EXPECT_EQ(x.joins, y.joins) << where;
  EXPECT_EQ(x.leaves, y.leaves) << where;
  EXPECT_EQ(x.departs, y.departs) << where;
  EXPECT_EQ(x.handoff_bytes, y.handoff_bytes) << where;
  EXPECT_EQ(x.sync_bytes, y.sync_bytes) << where;
  EXPECT_EQ(x.reconfigurations, y.reconfigurations) << where;
  EXPECT_EQ(x.rollbacks, y.rollbacks) << where;
  EXPECT_EQ(x.checkpoint_bytes, y.checkpoint_bytes) << where;
  EXPECT_EQ(x.num_batches, y.num_batches) << where;
  EXPECT_EQ(x.avg_gradient_nnz, y.avg_gradient_nnz) << where;
  EXPECT_EQ(x.train_loss, y.train_loss) << where;
  EXPECT_EQ(x.test_loss, y.test_loss) << where;
  EXPECT_EQ(x.TotalSeconds(), y.TotalSeconds()) << where;
}

TEST(TrainerTest, PipelinedBroadcastIsThreadCountInvariant) {
  // Batch b's broadcast runs while batch b+1's workers run, and before
  // any membership event or checkpoint. Ring-sharded servers give each
  // worker several decoded runs for the aggregation's run search; churn
  // fires events mid-epoch; crashes force rollbacks to checkpoints.
  Fixture f;
  const DigestCase c = DigestCases().back();
  ASSERT_TRUE(c.cluster.membership.Active());
  ASSERT_TRUE(c.cluster.membership.CheckpointsEnabled());
  ASSERT_GT(c.cluster.num_servers, 1);
  std::vector<EpochStats> serial;
  EpochStats total;
  const uint64_t digest = RunDigest(f, c, 1, &total, &serial);
  EXPECT_EQ(digest, c.plain);
  EXPECT_GT(total.joins + total.leaves + total.departs, 0u);
  EXPECT_GT(total.rollbacks, 0u);
  for (int threads : {2, 4}) {
    std::vector<EpochStats> pipelined;
    EXPECT_EQ(RunDigest(f, c, threads, &total, &pipelined), digest)
        << threads << " threads";
    ASSERT_EQ(pipelined.size(), serial.size());
    for (size_t e = 0; e < serial.size(); ++e) {
      ExpectSameModeledStats(serial[e], pipelined[e],
                             "epoch " + std::to_string(e + 1) + " at " +
                                 std::to_string(threads) + " threads");
    }
  }
}

/// Raw doubles whose root instance, the driver's broadcast lane, refuses
/// its `fail_at`-th Encode. Worker lanes (forks) never fail.
class FailingDriverCodec : public compress::GradientCodec {
 public:
  explicit FailingDriverCodec(int fail_at) : fail_at_(fail_at) {}
  std::string Name() const override { return "failing-driver"; }
  bool IsLossless() const override { return true; }
  std::unique_ptr<GradientCodec> Fork(uint64_t /*lane*/) const override {
    return std::make_unique<FailingDriverCodec>(0);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    if (++calls_ == fail_at_) {
      return common::Status::Internal("driver encode " +
                                      std::to_string(calls_) + " refused");
    }
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    return raw_.Decode(in, out);
  }

 private:
  int fail_at_;
  int calls_ = 0;
  compress::RawCodec raw_;
};

TEST(TrainerTest, FailedBroadcastFailsTheEpochWithItsStatus) {
  // With one server, driver encode n is batch n's broadcast: the first
  // runs beside batch 2's workers, the tenth after the last batch.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  for (int fail_at : {1, 5, 10}) {
    for (int threads : {1, 4}) {
      TrainerConfig config;
      config.num_threads = threads;
      DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                                 std::make_unique<FailingDriverCodec>(fail_at),
                                 cluster, config);
      auto result = trainer.RunEpoch();
      ASSERT_FALSE(result.ok()) << fail_at << " at " << threads << " threads";
      EXPECT_EQ(result.status().code(), common::StatusCode::kInternal);
      EXPECT_EQ(result.status().message(),
                "driver encode " + std::to_string(fail_at) + " refused");
    }
  }
  // An epoch has ten broadcasts, so the eleventh encode is never reached.
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             std::make_unique<FailingDriverCodec>(11),
                             cluster, TrainerConfig{});
  EXPECT_TRUE(trainer.RunEpoch().ok());
}

TEST(EpochStatsTest, AggregateSums) {
  EpochStats a, b;
  a.epoch = 1;
  a.compute_seconds = 1.0;
  a.bytes_up = 100;
  a.messages = 2;
  a.avg_gradient_nnz = 10;
  a.train_loss = 0.5;
  b.epoch = 2;
  b.compute_seconds = 2.0;
  b.bytes_up = 200;
  b.messages = 4;
  b.avg_gradient_nnz = 20;
  b.train_loss = 0.4;
  EpochStats total = Aggregate({a, b});
  EXPECT_DOUBLE_EQ(total.compute_seconds, 3.0);
  EXPECT_EQ(total.bytes_up, 300u);
  EXPECT_EQ(total.messages, 6u);
  EXPECT_DOUBLE_EQ(total.train_loss, 0.4);  // Last epoch.
  EXPECT_DOUBLE_EQ(total.avg_gradient_nnz, 15.0);
  EXPECT_EQ(total.epoch, 2);
}

TEST(EpochStatsTest, ToStringMentionsLoss) {
  EpochStats s;
  s.epoch = 3;
  s.train_loss = 0.25;
  EXPECT_NE(s.ToString().find("0.25"), std::string::npos);
}

}  // namespace
}  // namespace sketchml::dist
