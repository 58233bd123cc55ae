// One benchmark trial: synthesize a workload's dataset, build a
// DistributedTrainer through the public API, train, and print what was
// measured as one JSON object on the last line of stdout. perfbench/run.py
// launches trials back to back and turns them into the benchmark's
// metrics; see perfbench/README.md.
//
//   perfbench_trial --workload=kdd12-sketchml-t4 --seed=1 --mode=untraced
//       [--scale=1] [--t0-ns=<CLOCK_MONOTONIC ns at launch>]
//
// --mode=untraced times the plain run (setup, epochs, peak memory).
// --mode=traced runs the same configuration again with the codec wrapped
// in a TimingCodec, at 1, 2 and 4 threads, and replays one epoch's layer
// calls (replay.h); the program itself gets no tracing. Every run trains
// kEpochs epochs.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/codec_factory.h"
#include "dist/trainer.h"
#include "ml/gradient.h"
#include "ml/synthetic.h"
#include "replay.h"
#include "timing_codec.h"

namespace {

using namespace sketchml;
using perfbench::CodecLedger;

/// The benchmark's workloads; perfbench/README.md gives the reason for
/// each. Cluster and training knobs not listed here are sketchml_train's
/// defaults.
struct Workload {
  const char* name;
  const char* dataset;
  const char* codec;
  int servers;
  int threads;
  bool churn;  // 2% drop + 2% corruption, join/leave churn, checkpoints.
};

constexpr Workload kWorkloads[] = {
    {"kdd12-sketchml-t4", "kdd12", "sketchml", 1, 4, false},
    {"kdd12-raw-t4", "kdd12", "adam-double", 1, 4, false},
    {"ctr-sharded-churn-t1", "ctr", "sketchml", 4, 1, true},
};

constexpr int kEpochs = 3;
constexpr int kWorkers = 10;
constexpr double kLearningRate = 0.05;
constexpr double kAdamEpsilon = 0.01;
constexpr double kBatchRatio = 0.1;
constexpr double kNetScale = 840.0;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON object writer for the trial record.
class JsonOut {
 public:
  void Num(const char* key, double value) {
    Key(key);
    AppendNumber(value);
  }
  void Nums(const char* key, const std::vector<double>& values) {
    Key(key);
    text_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text_ += ',';
      AppendNumber(values[i]);
    }
    text_ += ']';
  }
  void Str(const char* key, const std::string& value) {
    Key(key);
    AppendString(value);
  }
  void Strs(const char* key, const std::vector<std::string>& values) {
    Key(key);
    text_ += '[';
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text_ += ',';
      AppendString(values[i]);
    }
    text_ += ']';
  }
  std::string Finish() const { return "{" + text_ + "}"; }

 private:
  void Key(const char* key) {
    if (!text_.empty()) text_ += ',';
    text_ += '"';
    text_ += key;
    text_ += "\":";
  }
  void AppendString(const std::string& value) {
    text_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') text_ += '\\';
      text_ += c;
    }
    text_ += '"';
  }
  void AppendNumber(double value) {
    if (!std::isfinite(value)) {
      text_ += "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    text_ += buf;
  }
  std::string text_;
};

struct Data {
  ml::Dataset train;
  ml::Dataset test;
  std::unique_ptr<ml::Loss> loss = ml::MakeLoss("lr");
  double synthesize_s = 0.0;  // GenerateSynthetic + Split.
};

Data Synthesize(const Workload& workload, uint64_t seed, double scale) {
  common::Stopwatch watch;
  ml::SyntheticConfig config = ml::PresetFor(workload.dataset, seed);
  config.num_instances = std::max<uint64_t>(
      400, static_cast<uint64_t>(
               std::llround(static_cast<double>(config.num_instances) *
                            scale)));
  const ml::Dataset all = ml::GenerateSynthetic(config);
  auto [train, test] = all.Split(0.25);
  Data data;
  data.train = std::move(train);
  data.test = std::move(test);
  data.synthesize_s = watch.ElapsedSeconds();
  return data;
}

dist::ClusterConfig MakeCluster(const Workload& workload) {
  dist::ClusterConfig cluster;
  cluster.num_workers = kWorkers;
  cluster.num_servers = workload.servers;
  cluster.network =
      dist::NetworkModel::Scaled(dist::NetworkModel::Lab1Gbps(), kNetScale);
  if (workload.churn) {
    // The fault and churn schedule is part of the workload, not of its
    // inputs: both keep their default seed, so every --seed trains through
    // the same events and only the data changes. Seeding them from --seed
    // changes the messages sent per epoch by up to 3x between seeds.
    cluster.faults.drop_prob = 0.02;
    cluster.faults.corrupt_prob = 0.02;
    cluster.membership.join_prob = 0.05;
    cluster.membership.leave_prob = 0.05;
    cluster.membership.min_workers = 6;
    cluster.membership.checkpoint_every = 1;
  }
  return cluster;
}

std::unique_ptr<dist::DistributedTrainer> MakeTrainer(
    const Workload& workload, const Data& data, int threads,
    std::shared_ptr<CodecLedger> ledger) {
  auto made = core::MakeCodec(workload.codec);
  SKETCHML_CHECK(made.ok()) << made.status().ToString();
  std::unique_ptr<compress::GradientCodec> codec = std::move(made).value();
  if (ledger != nullptr) {
    codec = std::make_unique<perfbench::TimingCodec>(std::move(codec),
                                                     std::move(ledger));
  }
  dist::TrainerConfig config;
  config.batch_ratio = kBatchRatio;
  config.learning_rate = kLearningRate;
  config.adam_epsilon = kAdamEpsilon;
  config.num_threads = threads;
  return std::make_unique<dist::DistributedTrainer>(
      &data.train, &data.test, data.loss.get(), std::move(codec),
      MakeCluster(workload), config);
}

/// Per-epoch record of one training run.
struct RunLog {
  std::vector<double> epoch_s;  // RunEpoch wall time.
  std::vector<double> bytes_up, messages, lost, retries, rollbacks;
  std::vector<double> train_loss, test_loss;

  void Add(double seconds, const dist::EpochStats& stats) {
    epoch_s.push_back(seconds);
    bytes_up.push_back(static_cast<double>(stats.bytes_up));
    messages.push_back(static_cast<double>(stats.messages));
    lost.push_back(static_cast<double>(stats.lost_messages));
    retries.push_back(static_cast<double>(stats.retries));
    rollbacks.push_back(static_cast<double>(stats.rollbacks));
    train_loss.push_back(stats.train_loss);
    test_loss.push_back(stats.test_loss);
  }

  /// Everything that must not depend on timing, threads or decoration.
  bool SameOutputs(const RunLog& other) const {
    return bytes_up == other.bytes_up && messages == other.messages &&
           lost == other.lost && retries == other.retries &&
           rollbacks == other.rollbacks && train_loss == other.train_loss &&
           test_loss == other.test_loss;
  }
};

/// Runs one epoch; stops the process on a training error, which the
/// runner counts as a failed trial.
void RunOneEpoch(dist::DistributedTrainer* trainer, RunLog* log) {
  common::Stopwatch watch;
  auto stats = trainer->RunEpoch();
  const double seconds = watch.ElapsedSeconds();
  if (!stats.ok()) {
    std::fprintf(stderr, "error: RunEpoch: %s\n",
                 stats.status().ToString().c_str());
    std::exit(1);
  }
  log->Add(seconds, *stats);
}

RunLog Train(dist::DistributedTrainer* trainer) {
  RunLog log;
  for (int e = 0; e < kEpochs; ++e) RunOneEpoch(trainer, &log);
  return log;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void WriteLog(JsonOut* out, const RunLog& log) {
  out->Nums("epoch_s", log.epoch_s);
  out->Nums("bytes_up", log.bytes_up);
  out->Nums("messages", log.messages);
  out->Nums("lost", log.lost);
  out->Nums("retries", log.retries);
  out->Nums("rollbacks", log.rollbacks);
  out->Nums("train_loss", log.train_loss);
  out->Nums("test_loss", log.test_loss);
}

/// Checks every run must pass: losses finite and falling, the requested
/// thread count kept.
void CheckTraining(const RunLog& log, int threads_wanted, int threads_got,
                   std::vector<std::string>* failures) {
  for (size_t e = 0; e < log.test_loss.size(); ++e) {
    if (!std::isfinite(log.train_loss[e]) || !std::isfinite(log.test_loss[e])) {
      failures->push_back("loss is not finite");
      break;
    }
  }
  if (log.train_loss.size() >= 2 &&
      !(log.train_loss.back() < log.train_loss.front())) {
    failures->push_back("train loss did not fall from first to last epoch");
  }
  if (threads_got != threads_wanted) {
    failures->push_back("trainer runs " + std::to_string(threads_got) +
                        " threads, " + std::to_string(threads_wanted) +
                        " requested");
  }
}

/// Median of repeated empty-task Submit + Get round trips on a 4-thread
/// pool, in microseconds.
double PoolTaskOverheadUs() {
  common::ThreadPool pool(4);
  constexpr int kBlocks = 7;
  constexpr int kTasksPerBlock = 2000;
  std::vector<double> per_task_us;
  for (int b = 0; b < kBlocks; ++b) {
    common::Stopwatch watch;
    for (int i = 0; i < kTasksPerBlock; ++i) {
      pool.Submit([] {}).Get();
    }
    per_task_us.push_back(watch.ElapsedSeconds() * 1e6 / kTasksPerBlock);
  }
  return Median(per_task_us);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t main_ns = NowNs();
  auto parsed = common::FlagParser::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const common::FlagParser& flags = *parsed;
  const std::string workload_name = flags.GetString("workload", "");
  const std::string mode = flags.GetString("mode", "untraced");
  const auto seed = flags.GetInt("seed", 1);
  const auto scale = flags.GetDouble("scale", 1.0);
  const auto t0_ns = flags.GetInt("t0-ns", static_cast<int64_t>(main_ns));
  if (!seed.ok() || !scale.ok() || !t0_ns.ok()) {
    return Fail("malformed numeric flag");
  }
  if (!(*scale > 0.0) || *t0_ns <= 0 ||
      static_cast<uint64_t>(*t0_ns) > main_ns) {
    return Fail("--scale must be > 0, --t0-ns in the past");
  }
  if (mode != "untraced" && mode != "traced") {
    return Fail("--mode must be untraced or traced");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return Fail("unknown --workload " + workload_name);
  for (const auto& unused : flags.UnusedFlags()) {
    return Fail("unknown flag --" + unused);
  }

  const int threads = workload->threads;
  const auto useed = static_cast<uint64_t>(*seed);
  std::vector<std::string> failures;
  const Data data = Synthesize(*workload, useed, *scale);
  JsonOut out;
  out.Str("workload", workload->name);
  out.Str("mode", mode);
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Str("compiler", PERFBENCH_COMPILER);
  out.Str("simd", common::simd::LevelName(common::simd::ActiveLevel()));
  out.Num("train_rows", static_cast<double>(data.train.size()));
  out.Num("epochs", kEpochs);
  out.Num("threads", threads);
  out.Num("synthesize_s", data.synthesize_s);

  if (mode == "untraced") {
    auto trainer = MakeTrainer(*workload, data, threads, nullptr);
    const uint64_t setup_end = NowNs();
    const RunLog log = Train(trainer.get());
    const uint64_t run_end = NowNs();
    CheckTraining(log, threads, trainer->num_threads(), &failures);

    // Untimed codec check: a fresh codec round-trips one real gradient.
    auto codec = core::MakeCodec(workload->codec);
    SKETCHML_CHECK(codec.ok());
    const common::SparseGradient grad = ml::ComputeBatchGradient(
        *data.loss, trainer->optimizer().weights(), data.train, 0,
        data.train.size() / (10 * kWorkers), dist::TrainerConfig().lambda);
    const std::string round_trip =
        perfbench::CheckRoundTrip(codec->get(), grad);
    if (!round_trip.empty()) failures.push_back(round_trip);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.Num("setup_s",
            static_cast<double>(setup_end - static_cast<uint64_t>(*t0_ns)) *
                1e-9);
    out.Num("run_s",
            static_cast<double>(run_end - static_cast<uint64_t>(*t0_ns)) *
                1e-9);
    out.Num("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
    WriteLog(&out, log);
  } else {
    // Undecorated baseline at the workload's thread count.
    auto plain = MakeTrainer(*workload, data, threads, nullptr);
    const RunLog plain_log = Train(plain.get());
    CheckTraining(plain_log, threads, plain->num_threads(), &failures);
    plain.reset();

    // Decorated run: same configuration, codec wrapped in a TimingCodec.
    // The last epoch's Encode inputs are captured for the replay.
    auto ledger = std::make_shared<CodecLedger>();
    auto traced = MakeTrainer(*workload, data, threads, ledger);
    RunLog traced_log;
    std::vector<double> encode_s, decode_s, encode_calls, bytes_in, bytes_out;
    ml::DenseVector replay_weights;
    for (int e = 0; e < kEpochs; ++e) {
      if (e + 1 == kEpochs) {
        replay_weights = traced->optimizer().weights();
        ledger->capture = true;
      }
      const CodecLedger::Totals before = ledger->Snapshot();
      RunOneEpoch(traced.get(), &traced_log);
      ledger->capture = false;
      const CodecLedger::Totals after = ledger->Snapshot();
      encode_s.push_back(after.encode_s - before.encode_s);
      decode_s.push_back(after.decode_s - before.decode_s);
      encode_calls.push_back(
          static_cast<double>(after.encode_calls - before.encode_calls));
      bytes_in.push_back(
          static_cast<double>(after.bytes_in - before.bytes_in));
      bytes_out.push_back(
          static_cast<double>(after.bytes_out - before.bytes_out));
    }
    CheckTraining(traced_log, threads, traced->num_threads(), &failures);
    if (!traced_log.SameOutputs(plain_log)) {
      failures.push_back("decorated run differs from the undecorated run");
    }
    // Only a workload that checkpoints times a checkpoint; the others
    // never call SaveCheckpoint and report 0.
    const dist::ClusterConfig cluster = MakeCluster(*workload);
    std::vector<uint8_t> checkpoint;
    double checkpoint_save_s = 0.0;
    if (cluster.membership.CheckpointsEnabled()) {
      common::Stopwatch watch;
      const common::Status saved = traced->SaveCheckpoint(&checkpoint);
      checkpoint_save_s = watch.ElapsedSeconds();
      if (!saved.ok()) {
        failures.push_back("SaveCheckpoint: " + saved.ToString());
      }
    }

    // Thread scaling: the same run at 1, 2 and 4 threads. Outputs must
    // be bit-identical at every thread count.
    std::vector<double> epoch_s_by_threads[3];
    for (int i = 0; i < 3; ++i) {
      const int t = 1 << i;
      if (t == threads) {
        epoch_s_by_threads[i] = plain_log.epoch_s;
        continue;
      }
      auto scaled = MakeTrainer(*workload, data, t, nullptr);
      const RunLog scaled_log = Train(scaled.get());
      CheckTraining(scaled_log, t, scaled->num_threads(), &failures);
      if (!scaled_log.SameOutputs(plain_log)) {
        failures.push_back("run at " + std::to_string(t) +
                           " threads differs from the run at " +
                           std::to_string(threads));
      }
      epoch_s_by_threads[i] = scaled_log.epoch_s;
    }

    perfbench::ReplayInput in;
    in.loss = data.loss.get();
    in.train = &data.train;
    in.test = &data.test;
    in.weights = std::move(replay_weights);
    in.lambda = dist::TrainerConfig().lambda;
    in.batch_ratio = kBatchRatio;
    in.workers = kWorkers;
    in.learning_rate = kLearningRate;
    in.adam_epsilon = kAdamEpsilon;
    in.codec_name = workload->codec;
    in.frames = cluster.faults.Active();
    in.captures = &ledger->captures;  // The trainer is idle from here on.
    const perfbench::ReplayResult replay = perfbench::ReplayEpoch(in);
    failures.insert(failures.end(), replay.failures.begin(),
                    replay.failures.end());

    out.Nums("plain_epoch_s", plain_log.epoch_s);
    WriteLog(&out, traced_log);
    out.Nums("epoch_s_t1", epoch_s_by_threads[0]);
    out.Nums("epoch_s_t2", epoch_s_by_threads[1]);
    out.Nums("epoch_s_t4", epoch_s_by_threads[2]);
    out.Nums("encode_s", encode_s);
    out.Nums("decode_s", decode_s);
    out.Nums("encode_calls", encode_calls);
    out.Nums("bytes_in", bytes_in);
    out.Nums("bytes_out", bytes_out);
    out.Num("checkpoint_save_s", checkpoint_save_s);
    out.Num("checkpoint_bytes", static_cast<double>(checkpoint.size()));
    out.Num("pool_task_overhead_us", PoolTaskOverheadUs());
    out.Num("replay_gradient_s", replay.gradient_s);
    out.Num("replay_loss_eval_s", replay.loss_eval_s);
    out.Num("replay_optimizer_apply_s", replay.optimizer_apply_s);
    out.Num("replay_codec_encode_s", replay.codec_encode_s);
    out.Num("replay_codec_decode_s", replay.codec_decode_s);
    out.Num("replay_frame_s", replay.frame_s);
    out.Num("replay_kll_build_s", replay.kll_build_s);
    out.Num("replay_bucket_search_s", replay.bucket_search_s);
    out.Num("replay_minmax_insert_s", replay.minmax_insert_s);
    out.Num("replay_minmax_query_s", replay.minmax_query_s);
    out.Num("replay_delta_key_encode_s", replay.delta_key_encode_s);
    out.Num("replay_delta_key_decode_s", replay.delta_key_decode_s);
  }
  out.Strs("failures", failures);
  std::printf("%s\n", out.Finish().c_str());
  return 0;
}
