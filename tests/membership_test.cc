#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "compress/raw_codec.h"
#include "core/codec_factory.h"
#include "dist/membership.h"
#include "dist/trainer.h"
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

  std::unique_ptr<compress::GradientCodec> Codec(const std::string& name) {
    return std::move(core::MakeCodec(name)).value();
  }

  common::Result<std::vector<EpochStats>> Run(const ClusterConfig& cluster,
                                              int epochs,
                                              const std::string& codec,
                                              int num_threads = 1) {
    TrainerConfig config;
    config.learning_rate = 0.05;
    config.adam_epsilon = 0.01;
    config.num_threads = num_threads;
    DistributedTrainer trainer(train.get(), test.get(), loss.get(),
                               Codec(codec), cluster, config);
    return trainer.Run(epochs);
  }

  std::unique_ptr<ml::Dataset> train, test;
  std::unique_ptr<ml::Loss> loss;
};

/// The deterministic subset of EpochStats, extended with the membership
/// accounting fields (everything except measured CPU seconds).
void ExpectDeterministicFieldsEqual(const EpochStats& a, const EpochStats& b) {
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.bytes_down, b.bytes_down);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.num_batches, b.num_batches);
  EXPECT_EQ(a.injected_faults, b.injected_faults);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.departs, b.departs);
  EXPECT_EQ(a.handoff_bytes, b.handoff_bytes);
  EXPECT_EQ(a.sync_bytes, b.sync_bytes);
  EXPECT_EQ(a.reconfigurations, b.reconfigurations);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.avg_gradient_nnz, b.avg_gradient_nnz);  // Bit-exact.
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.test_loss, b.test_loss);
}

// ---------------------------------------------------------------------------
// MembershipPlan validation.

TEST(MembershipPlanTest, DefaultPlanIsInactiveAndValid) {
  MembershipPlan plan;
  EXPECT_FALSE(plan.Active());
  EXPECT_FALSE(plan.CheckpointsEnabled());
  EXPECT_FALSE(plan.CanShrink());
  EXPECT_TRUE(ValidateMembershipPlan(plan).ok());
}

TEST(MembershipPlanTest, AnyPositiveChurnProbabilityActivates) {
  MembershipPlan plan;
  plan.join_prob = 0.01;
  EXPECT_TRUE(plan.Active());
  EXPECT_FALSE(plan.CanShrink());  // Joins alone never shrink the fleet.
  plan = MembershipPlan();
  plan.leave_prob = 0.01;
  EXPECT_TRUE(plan.Active());
  EXPECT_TRUE(plan.CanShrink());
  plan = MembershipPlan();
  plan.depart_prob = 0.01;
  EXPECT_TRUE(plan.Active());
  EXPECT_TRUE(plan.CanShrink());
}

TEST(MembershipPlanTest, CheckpointsAreIndependentOfChurn) {
  MembershipPlan plan;
  plan.checkpoint_every = 2;
  EXPECT_TRUE(plan.CheckpointsEnabled());
  EXPECT_FALSE(plan.Active());
  EXPECT_TRUE(ValidateMembershipPlan(plan).ok());
}

TEST(MembershipPlanTest, RejectsOutOfRangeProbabilities) {
  MembershipPlan plan;
  plan.join_prob = 1.5;
  EXPECT_EQ(ValidateMembershipPlan(plan).code(),
            common::StatusCode::kInvalidArgument);
  plan = MembershipPlan();
  plan.leave_prob = -0.1;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
  plan = MembershipPlan();
  plan.depart_prob = 2.0;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
}

TEST(MembershipPlanTest, RejectsBadEnvelopesAndBudgets) {
  MembershipPlan plan;
  plan.max_workers = -1;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
  plan = MembershipPlan();
  plan.min_workers = 0;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
  plan = MembershipPlan();
  plan.max_workers = 2;
  plan.min_workers = 3;  // Empty fleet envelope.
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
  plan = MembershipPlan();
  plan.checkpoint_every = -1;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
  plan = MembershipPlan();
  plan.max_rollbacks = -1;
  EXPECT_FALSE(ValidateMembershipPlan(plan).ok());
}

TEST(MembershipPlanTest, ResolvedMaxWorkersDefaultsToClusterSize) {
  MembershipPlan plan;
  EXPECT_EQ(ResolvedMaxWorkers(plan, 6), 6);
  plan.max_workers = 9;
  EXPECT_EQ(ResolvedMaxWorkers(plan, 6), 9);
}

// ---------------------------------------------------------------------------
// Cross-validation against the FaultPlan (satellite: the quorum/scale-down
// interaction must be rejected up front, with an actionable message).

TEST(ClusterMembershipValidationTest, RejectsQuorumUnreachableAfterScaleDown) {
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.min_quorum = 3;
  cluster.membership.depart_prob = 0.1;
  cluster.membership.min_workers = 1;  // Churn may leave 1 < quorum of 3.
  const common::Status status = ValidateClusterConfig(cluster);
  ASSERT_EQ(status.code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(
                "can never be met after the maximum scheduled scale-down"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("min_quorum (3)"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("leaves only 1 active"), std::string::npos)
      << status.ToString();
}

TEST(ClusterMembershipValidationTest, AcceptsQuorumCoveredByTheFloor) {
  // min_workers >= min_quorum: even the deepest scale-down keeps quorum.
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.faults.min_quorum = 2;
  cluster.membership.leave_prob = 0.1;
  cluster.membership.min_workers = 2;
  EXPECT_TRUE(ValidateClusterConfig(cluster).ok());
  // A grow-only plan cannot shrink the fleet, so any quorum that the
  // starting fleet meets stays valid.
  cluster = ClusterConfig();
  cluster.num_workers = 4;
  cluster.faults.min_quorum = 4;
  cluster.membership.join_prob = 0.1;
  cluster.membership.max_workers = 8;
  EXPECT_TRUE(ValidateClusterConfig(cluster).ok());
}

TEST(ClusterMembershipValidationTest, RejectsBadFleetEnvelopes) {
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.membership.max_workers = 2;  // Ceiling below the starting fleet.
  const common::Status ceiling = ValidateClusterConfig(cluster);
  ASSERT_FALSE(ceiling.ok());
  EXPECT_NE(ceiling.message().find("max_workers is below num_workers"),
            std::string::npos);
  cluster = ClusterConfig();
  cluster.num_workers = 4;
  cluster.membership.min_workers = 5;  // Floor above the starting fleet.
  const common::Status floor = ValidateClusterConfig(cluster);
  ASSERT_FALSE(floor.ok());
  EXPECT_NE(floor.message().find("min_workers exceeds num_workers"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// MembershipOracle / MembershipDirectory units.

TEST(MembershipOracleTest, DecisionsAreDeterministic) {
  MembershipPlan plan;
  plan.seed = 42;
  plan.join_prob = 0.3;
  plan.leave_prob = 0.3;
  MembershipOracle a(plan), b(plan);
  int fired = 0;
  for (uint64_t batch = 0; batch < 50; ++batch) {
    for (int w = 0; w < 4; ++w) {
      EXPECT_EQ(a.ShouldJoin(batch, w), b.ShouldJoin(batch, w));
      EXPECT_EQ(a.ShouldLeave(batch, w), b.ShouldLeave(batch, w));
      EXPECT_EQ(a.ShouldDepart(batch, w), b.ShouldDepart(batch, w));
      if (a.ShouldJoin(batch, w)) ++fired;
    }
  }
  // ~30% of 200 draws; a degenerate oracle would fail both bounds.
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 140);
}

TEST(MembershipOracleTest, SeedChangesTheSchedule) {
  MembershipPlan plan;
  plan.leave_prob = 0.5;
  plan.seed = 1;
  MembershipOracle a(plan);
  plan.seed = 2;
  MembershipOracle b(plan);
  int differ = 0;
  for (uint64_t batch = 0; batch < 100; ++batch) {
    if (a.ShouldLeave(batch, 0) != b.ShouldLeave(batch, 0)) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(MembershipOracleTest, EventKindsDrawIndependently) {
  // Join/leave/depart hash distinct kinds, so one probability never
  // mirrors another's schedule even at the same (batch, worker).
  MembershipPlan plan;
  plan.join_prob = 0.5;
  plan.leave_prob = 0.5;
  MembershipOracle oracle(plan);
  int differ = 0;
  for (uint64_t batch = 0; batch < 100; ++batch) {
    if (oracle.ShouldJoin(batch, 0) != oracle.ShouldLeave(batch, 0)) ++differ;
  }
  EXPECT_GT(differ, 10);
}

TEST(MembershipDirectoryTest, InactivePlanPinsTheIdentityFleet) {
  MembershipDirectory dir(MembershipPlan{}, 4);
  std::vector<MembershipEvent> events;
  for (uint64_t batch = 0; batch < 50; ++batch) dir.ApplyBatch(batch, &events);
  EXPECT_TRUE(events.empty());
  ASSERT_EQ(dir.active().size(), 4u);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(dir.active()[w], w);
}

TEST(MembershipDirectoryTest, ReplaysIdenticalEventSequence) {
  MembershipPlan plan;
  plan.seed = 7;
  plan.join_prob = 0.05;
  plan.leave_prob = 0.05;
  plan.depart_prob = 0.02;
  plan.max_workers = 8;
  plan.min_workers = 2;
  MembershipDirectory a(plan, 4), b(plan, 4);
  std::vector<MembershipEvent> ea, eb;
  for (uint64_t batch = 0; batch < 200; ++batch) {
    a.ApplyBatch(batch, &ea);
    b.ApplyBatch(batch, &eb);
    ASSERT_EQ(a.active(), b.active());
  }
  ASSERT_EQ(ea.size(), eb.size());
  EXPECT_GT(ea.size(), 0u);  // The plan must actually have fired.
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].worker, eb[i].worker);
    EXPECT_EQ(ea[i].batch, eb[i].batch);
  }
}

TEST(MembershipDirectoryTest, FloorAndCeilingAreNeverViolated) {
  MembershipPlan plan;
  plan.seed = 3;
  plan.join_prob = 0.2;
  plan.leave_prob = 0.4;  // Aggressive churn to stress the floor.
  plan.depart_prob = 0.1;
  plan.max_workers = 6;
  plan.min_workers = 2;
  MembershipDirectory dir(plan, 4);
  std::vector<MembershipEvent> events;
  for (uint64_t batch = 0; batch < 500; ++batch) {
    dir.ApplyBatch(batch, &events);
    EXPECT_GE(dir.active().size(), 2u);
    EXPECT_LE(dir.active().size(), 6u);
  }
}

TEST(MembershipDirectoryTest, DepartedWorkersNeverReturn) {
  MembershipPlan plan;
  plan.seed = 5;
  plan.join_prob = 0.3;  // High join pressure: a buggy directory would
                         // resurrect departed ids within 300 batches.
  plan.depart_prob = 0.05;
  plan.min_workers = 1;
  MembershipDirectory dir(plan, 4);
  std::vector<MembershipEvent> events;
  std::set<int> departed;
  for (uint64_t batch = 0; batch < 300; ++batch) {
    const size_t before = events.size();
    dir.ApplyBatch(batch, &events);
    for (size_t i = before; i < events.size(); ++i) {
      if (events[i].kind == MembershipEvent::kDepart) {
        departed.insert(events[i].worker);
      } else if (events[i].kind == MembershipEvent::kJoin) {
        EXPECT_EQ(departed.count(events[i].worker), 0u)
            << "departed worker " << events[i].worker << " rejoined at batch "
            << batch;
      }
    }
    for (int w : departed) {
      EXPECT_EQ(dir.state(w), WorkerState::kDeparted);
    }
  }
  EXPECT_GT(departed.size(), 0u);
}

// ---------------------------------------------------------------------------
// ShardRing / ActiveServerCount.

TEST(ShardRingTest, ShardOfIsInRangeAndCoversAllShards) {
  ShardRing ring;
  ring.Rebuild(4);
  std::set<int> seen;
  for (uint64_t key = 0; key < 4000; ++key) {
    const int s = ring.ShardOf(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);  // No shard starves at 16 vnodes each.
}

TEST(ShardRingTest, ResizeMovesOnlyAFractionOfKeys) {
  // The consistent-hashing property that makes re-partitioning an
  // O(moved keys) handoff: shrinking 4 -> 3 shards must relocate roughly
  // the removed shard's share (~1/4), never reshuffle everything.
  ShardRing big, small;
  big.Rebuild(4);
  small.Rebuild(3);
  int moved = 0;
  const int kKeys = 10000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    const int before = big.ShardOf(key);
    const int after = small.ShardOf(key);
    if (before != after) ++moved;
    // Keys that stayed on a surviving shard must not have moved between
    // surviving shards: only shard 3's keys relocate.
    if (before < 3) {
      EXPECT_EQ(after, before) << "key " << key;
    }
  }
  EXPECT_GT(moved, kKeys / 10);  // Shard 3 owned a real share...
  EXPECT_LT(moved, kKeys / 2);   // ...but nowhere near everything moved.
}

TEST(ShardRingTest, SingleShardOwnsEverything) {
  ShardRing ring;
  ring.Rebuild(1);
  for (uint64_t key = 0; key < 100; ++key) EXPECT_EQ(ring.ShardOf(key), 0);
}

TEST(ActiveServerCountTest, ScalesProportionallyAndClamps) {
  // Full fleet keeps every shard; half fleet halves them; the count
  // never leaves [1, num_servers].
  EXPECT_EQ(ActiveServerCount(4, 8, 8), 4);
  EXPECT_EQ(ActiveServerCount(4, 4, 8), 2);
  EXPECT_EQ(ActiveServerCount(4, 1, 8), 1);
  EXPECT_EQ(ActiveServerCount(4, 16, 8), 4);  // Clamped at num_servers.
  EXPECT_EQ(ActiveServerCount(1, 1, 8), 1);   // Single server: always 1.
  EXPECT_EQ(ActiveServerCount(0, 4, 8), 1);   // Degenerate input clamps.
}

// ---------------------------------------------------------------------------
// Trainer integration.

TEST(ElasticMembershipTest, InactivePlanVariantsAreBitIdentical) {
  // Churn-off bit-identity: tweaking inactive-plan knobs (seed, envelope,
  // rollback budget) must not perturb training at all.
  Fixture f;
  ClusterConfig plain;
  plain.num_workers = 4;
  ClusterConfig tweaked = plain;
  tweaked.membership.seed = 999;
  tweaked.membership.min_workers = 3;
  tweaked.membership.max_rollbacks = 7;
  auto a = f.Run(plain, 2, "sketchml");
  auto b = f.Run(tweaked, 2, "sketchml");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t e = 0; e < a->size(); ++e) {
    ExpectDeterministicFieldsEqual((*a)[e], (*b)[e]);
    EXPECT_EQ((*a)[e].joins, 0u);
    EXPECT_EQ((*a)[e].leaves, 0u);
    EXPECT_EQ((*a)[e].departs, 0u);
    EXPECT_EQ((*a)[e].reconfigurations, 0u);
  }
}

TEST(ElasticMembershipTest, SameSeedReplaysIdenticalChurnSchedule) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.membership.seed = 7;
  cluster.membership.join_prob = 0.05;
  cluster.membership.leave_prob = 0.05;
  cluster.membership.min_workers = 2;
  auto a = f.Run(cluster, 2, "sketchml");
  auto b = f.Run(cluster, 2, "sketchml");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  uint64_t churn = 0;
  for (size_t e = 0; e < a->size(); ++e) {
    ExpectDeterministicFieldsEqual((*a)[e], (*b)[e]);
    churn += (*a)[e].joins + (*a)[e].leaves;
  }
  EXPECT_GT(churn, 0u);  // The plan must actually have fired.
}

TEST(ElasticMembershipTest, ChurnScheduleIsThreadCountInvariant) {
  // Membership decisions are keyed on (seed, kind, batch, worker) and
  // applied in a serial driver pass, so a threaded run replays the
  // serial run event for event.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 2;
  cluster.membership.seed = 11;
  cluster.membership.leave_prob = 0.04;
  cluster.membership.join_prob = 0.08;
  cluster.membership.depart_prob = 0.01;
  cluster.membership.min_workers = 2;
  auto serial = f.Run(cluster, 2, "sketchml", /*num_threads=*/1);
  auto threaded = f.Run(cluster, 2, "sketchml", /*num_threads=*/3);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial->size(), threaded->size());
  uint64_t churn = 0;
  for (size_t e = 0; e < serial->size(); ++e) {
    ExpectDeterministicFieldsEqual((*serial)[e], (*threaded)[e]);
    churn += (*serial)[e].joins + (*serial)[e].leaves + (*serial)[e].departs;
  }
  EXPECT_GT(churn, 0u);
}

TEST(ElasticMembershipTest, ScaleDownRepartitionsServerShards) {
  // Permanent departures shrink the fleet; the proportional shard count
  // drops, and the re-partition shows up as reconfigurations with
  // shard-state handoff bytes charged to the epoch.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 4;
  cluster.membership.seed = 1;
  cluster.membership.depart_prob = 0.03;
  cluster.membership.min_workers = 1;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  DistributedTrainer trainer(f.train.get(), f.test.get(), f.loss.get(),
                             f.Codec("sketchml"), cluster, config);
  auto run = trainer.Run(4);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EpochStats total = Aggregate(*run);
  ASSERT_GT(total.departs, 0u) << "seed 1 must shrink the fleet";
  EXPECT_LT(trainer.active_workers(), 4);
  EXPECT_GT(total.reconfigurations, 0u);
  EXPECT_GT(total.handoff_bytes, 0u);
}

TEST(ElasticMembershipTest, JoinersPayWeightSyncBytes) {
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 2;
  cluster.membership.seed = 7;
  cluster.membership.join_prob = 0.05;
  cluster.membership.leave_prob = 0.05;
  cluster.membership.max_workers = 4;
  cluster.membership.min_workers = 1;
  auto run = f.Run(cluster, 2, "sketchml");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const EpochStats total = Aggregate(*run);
  ASSERT_GT(total.joins, 0u);
  // Every join syncs the current dense weights (8 bytes per dimension).
  EXPECT_GE(total.sync_bytes, total.joins * 8u * (1u << 14));
}

/// Raw doubles, except that every worker-lane (forked) Decode first
/// sleeps a fixed time, which puts a floor under measured decode seconds.
/// The root instance, which the driver broadcasts with, does not sleep.
class SlowDecodeCodec : public compress::GradientCodec {
 public:
  static constexpr std::chrono::milliseconds kSleep{2};

  explicit SlowDecodeCodec(bool sleeps) : sleeps_(sleeps) {}
  std::string Name() const override { return "slow-decode"; }
  bool IsLossless() const override { return true; }
  std::unique_ptr<GradientCodec> Fork(uint64_t /*lane*/) const override {
    return std::make_unique<SlowDecodeCodec>(true);
  }

 protected:
  common::Status EncodeImpl(const common::SparseGradient& grad,
                            compress::EncodedGradient* out) override {
    return raw_.Encode(grad, out);
  }
  common::Status DecodeImpl(const compress::EncodedGradient& in,
                            common::SparseGradient* out) override {
    if (sleeps_) std::this_thread::sleep_for(kSleep);
    return raw_.Decode(in, out);
  }

 private:
  bool sleeps_;
  compress::RawCodec raw_;
};

TEST(ElasticMembershipTest, DecodeTimeIsSplitOverActiveServers) {
  // Servers decode in parallel, so a batch's decode time is the summed
  // per-message decode over the shards that own keys. After a scale-down
  // that is the active shard count, not the configured one: departures
  // take the fleet from 4 workers to 2 in the first batch, and the next
  // epoch re-partitions 4 shards down to 2.
  Fixture f;
  ClusterConfig cluster;
  cluster.num_workers = 4;
  cluster.num_servers = 4;
  cluster.membership.depart_prob = 1.0;
  cluster.membership.min_workers = 2;
  TrainerConfig config;
  config.learning_rate = 0.05;
  config.adam_epsilon = 0.01;
  config.evaluate_test_loss = false;
  DistributedTrainer trainer(f.train.get(), nullptr, f.loss.get(),
                             std::make_unique<SlowDecodeCodec>(false),
                             cluster, config);
  auto first = trainer.RunEpoch();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(trainer.active_workers(), 2);
  const int active_servers = ActiveServerCount(4, 2, 4);
  ASSERT_EQ(active_servers, 2);

  auto second = trainer.RunEpoch();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->reconfigurations, 1u);
  ASSERT_GT(second->messages, 0u);
  const double sleep_seconds =
      std::chrono::duration<double>(SlowDecodeCodec::kSleep).count();
  const double floor = 0.9 * static_cast<double>(second->messages) *
                       sleep_seconds / active_servers;
  EXPECT_GE(second->decode_seconds, floor);
}

}  // namespace
}  // namespace sketchml::dist
