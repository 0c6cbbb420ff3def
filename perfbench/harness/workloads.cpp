#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/time_distribution.hpp"
#include "data/synthetic.hpp"
#include "models/backbones.hpp"
#include "models/trainer.hpp"
#include "nn/gemm.hpp"
#include "nn/quant/profile.hpp"
#include "predictor/cs_predictor.hpp"
#include "profiling/platform.hpp"
#include "profiling/profiler.hpp"
#include "runtime/batched_engine.hpp"
#include "serving/replicate.hpp"
#include "util/timer.hpp"

namespace pb {

namespace {

using namespace einet;

// Planner and predictor settings shared by every workload: the repo's
// default hybrid search, and the bench suite's predictor recipe (wider
// hidden layer for deep models).
const runtime::ElasticConfig kEngineConfig{};

std::unique_ptr<predictor::CSPredictor> train_predictor(
    const profiling::CSProfile& cs) {
  predictor::CSPredictorConfig pc;
  pc.hidden = cs.num_exits >= 20 ? 128 : 64;
  pc.epochs = 30;
  auto pred = std::make_unique<predictor::CSPredictor>(cs.num_exits, pc);
  pred->train(cs);
  return pred;
}

serving::ServerConfig server_config(std::size_t workers,
                                    serving::QuantMode quant) {
  serving::ServerConfig c;
  // Deep enough that neither phase ever overflows: the gates require
  // rejected == 0.
  c.queue_capacity = std::size_t{1} << 16;
  c.pool.num_workers = workers;
  c.quant = quant;
  return c;
}

/// Admission-queue wait of each task, sampled by the harness's runner.
class QueueProbe {
 public:
  /// Called on a worker at runner entry.
  void add(const serving::EdgeServer& server, const serving::Task& task) {
    const double ms =
        server.uptime_ms() - task.admit_ms - task.assembler_wait_ms;
    const std::lock_guard lock{mu_};
    samples_.push_back(ms);
  }
  std::vector<double> take() {
    const std::lock_guard lock{mu_};
    return std::exchange(samples_, {});
  }

 private:
  std::mutex mu_;
  std::vector<double> samples_;
};

/// Replay replicas for a pool whose runner ignores them (live serving): the
/// EdgeServer still builds one per worker.
serving::EngineFactory idle_replicas(const profiling::ETProfile& et) {
  return serving::make_replicated_engine_factory(
      et, nullptr, kEngineConfig, std::vector<float>(et.num_blocks(), 0.0f));
}

template <typename F>
double timed_s(F&& f) {
  const util::Timer t;
  f();
  return t.elapsed_s();
}

// ---------------------------------------------------------------------------
// replay-tcp: tracked MSDNet40 ET/CS artifacts, CS records over loopback TCP.
// ---------------------------------------------------------------------------

class ReplayTcp final : public Workload {
 public:
  explicit ReplayTcp(std::string artifacts) {
    const std::string stem =
        artifacts + "/MSDNet40-cifar10-tr800-te300-ep14-s7-pedge_fast";
    et_path_ = stem + ".et.csv";
    cs_path_ = stem + ".cs.csv";
    config_.name = "replay-tcp";
    config_.budget = {.workers = 2, .gemm_threads = 1, .program_threads = 1};
    config_.window = 16;
    config_.nominal_rps = 1400.0;
    config_.paced_rps = 400.0;
    config_.deadlines_per_item = 3;
    config_.ref_stride = 5;
  }

  ~ReplayTcp() override { stop_server(); }

  const WorkloadConfig& config() const override { return config_; }

  SetupTimes setup() override {
    SetupTimes t;
    ref_engine_.reset();
    t.load_s = timed_s([&] {
      et_ = profiling::ETProfile::load(et_path_);
      cs_ = profiling::CSProfile::load(cs_path_);
    });
    std::unique_ptr<predictor::CSPredictor> pred;
    t.predictor_train_s = timed_s([&] { pred = train_predictor(cs_); });
    t.start_s = timed_s([&] {
      dist_ = std::make_shared<const core::UniformExitDistribution>(
          et_.total_ms());
      factory_ = serving::make_replicated_engine_factory(et_, pred.get(),
                                                         kEngineConfig);
      start_server();
    });
    stop_server();
    return t;
  }

  std::size_t num_items() const override { return cs_.size(); }
  double horizon_ms() const override { return et_.total_ms(); }

  runtime::InferenceOutcome reference(const Request& r) override {
    if (!ref_engine_) ref_engine_ = factory_(0);
    return ref_engine_->run(cs_.records[r.item], r.deadline_ms, *dist_);
  }

  LoadTarget& start_server() override {
    serving::TaskRunner runner = [this](runtime::ElasticEngine& e,
                                        const serving::Task& task,
                                        util::Rng&) {
      probe_.add(*server_, task);
      BenchSpan span{"bench.run", static_cast<std::int64_t>(task.id)};
      return e.run(*task.record, task.deadline_ms, *dist_);
    };
    server_ = std::make_unique<serving::EdgeServer>(
        et_, factory_, std::move(runner),
        server_config(config_.budget.workers, serving::QuantMode::kFp32));
    tcp_ = std::make_unique<net::EdgeTcpServer>(*server_);
    tcp_->start();
    target_ = make_tcp_target(tcp_->port(), 2, cs_);
    return *target_;
  }

  ServerReport stop_server() override {
    ServerReport r;
    if (!server_) return r;
    target_.reset();  // client sockets close; every answer is already in
    tcp_->stop();
    server_->shutdown();
    r.snap = server_->metrics();
    r.has_net = true;
    r.net = tcp_->net_metrics();
    r.queue_ms = probe_.take();
    tcp_.reset();
    server_.reset();
    return r;
  }

  DeploymentFacts facts() const override { return {}; }

 private:
  WorkloadConfig config_;
  std::string et_path_;
  std::string cs_path_;
  profiling::ETProfile et_;
  profiling::CSProfile cs_;
  std::shared_ptr<const core::UniformExitDistribution> dist_;
  serving::EngineFactory factory_;
  std::unique_ptr<runtime::ElasticEngine> ref_engine_;
  QueueProbe probe_;
  std::unique_ptr<serving::EdgeServer> server_;
  std::unique_ptr<net::EdgeTcpServer> tcp_;
  std::unique_ptr<LoadTarget> target_;
};

// ---------------------------------------------------------------------------
// Live workloads: a B-AlexNet fixture trained on synthetic CIFAR-10, served
// in-process from raw test images.
// ---------------------------------------------------------------------------

// Fixture recipe: the bench suite's B-AlexNet/cifar10 job (800 training and
// 300 test images, 12 epochs, seed 7). Its tracked CS profile puts the three
// exits at 0.35 / 0.48 / 0.59 accuracy, well above the 0.1 chance level.
constexpr std::size_t kFixtureTrain = 800;
constexpr std::size_t kFixtureTest = 300;
constexpr std::size_t kFixtureEpochs = 12;
constexpr std::uint64_t kFixtureSeed = 7;

class LiveBase : public Workload {
 public:
  explicit LiveBase(std::string work_dir)
      : weights_path_(std::move(work_dir) + "/fixture-b_alexnet.bin"),
        data_(data::make_synthetic(
            data::synth_cifar10_spec(kFixtureTrain, kFixtureTest))) {
    for (std::size_t i = 0; i < data_.test->size(); ++i) {
      const auto& s = data_.test->sample(i);
      images_.push_back(std::make_shared<const nn::Tensor>(s.image));
      labels_.push_back(s.label);
    }
  }

  const WorkloadConfig& config() const override { return config_; }

  double prepare(std::size_t threads) override {
    // Train in a child process so the fixture's memory peak stays out of
    // this process's rss. The child is forked before this process starts
    // any thread, and sizes its own GEMM pool.
    const util::Timer t;
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error{"fork() failed"};
    if (pid == 0) {
      int code = 0;
      try {
        nn::set_gemm_threads(threads);
        auto net = fresh_net();
        models::TrainConfig tc;
        tc.epochs = kFixtureEpochs;
        tc.seed = kFixtureSeed;
        models::MultiExitTrainer{net}.train(*data_.train, tc);
        net.save_weights(weights_path_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: fixture training failed: %s\n",
                     e.what());
        code = 1;
      }
      std::_Exit(code);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error{"fixture training process failed"};
    return t.elapsed_s();
  }

  std::size_t num_items() const override { return images_.size(); }
  double horizon_ms() const override { return et_.total_ms(); }

  DeploymentFacts facts() const override {
    DeploymentFacts f;
    f.weight_bytes = model_.weight_bytes;
    f.quant_weight_bytes = model_.quant_weight_bytes;
    f.arena_bytes_per_worker = arena_bytes_per_worker();
    f.scratch_overflows = scratch_overflows();
    return f;
  }

 protected:
  models::MultiExitNetwork fresh_net() const {
    util::Rng rng{kFixtureSeed};
    return models::make_b_alexnet(data_.train->input_shape(),
                                  data_.train->num_classes(), rng);
  }

  /// The fp32 part of every live set-up: load the fixture weights, profile
  /// ET/CS, train the predictor and freeze the shared model.
  void setup_fp32(SetupTimes& t) {
    std::optional<models::MultiExitNetwork> net;
    t.load_s = timed_s([&] {
      net.emplace(fresh_net());
      net->load_weights(weights_path_);
    });
    profiling::CSProfile cs;
    t.profile_s = timed_s([&] {
      et_ = profiling::profile_execution_time(
          *net, profiling::edge_fast_platform());
      cs = profiling::profile_confidence(*net, *data_.test);
    });
    std::unique_ptr<predictor::CSPredictor> pred;
    t.predictor_train_s = timed_s([&] { pred = train_predictor(cs); });
    t.freeze_s = timed_s(
        [&] { model_ = serving::freeze_model(std::move(*net), std::move(pred)); });
  }

  /// Submit one live request through the in-process server.
  serving::SubmitStatus submit(const Request& r, std::int64_t id,
                               serving::CompletionCallback done) {
    BenchSpan span{"bench.submit", id};
    return server_->submit_live(images_[r.item], labels_[r.item],
                                r.deadline_ms, std::move(done));
  }

  LoadTarget& make_target() {
    target_ = make_inproc_target(
        [this](const Request& r, std::int64_t id,
               serving::CompletionCallback done) {
          return submit(r, id, std::move(done));
        });
    return *target_;
  }

  ServerReport stop_inproc() {
    ServerReport r;
    if (!server_) return r;
    server_->shutdown();
    r.snap = server_->metrics();
    r.queue_ms = probe_.take();
    server_.reset();
    target_.reset();  // after the workers that signalled it are joined
    return r;
  }

  virtual std::size_t arena_bytes_per_worker() const = 0;
  virtual std::size_t scratch_overflows() const = 0;

  WorkloadConfig config_;
  std::string weights_path_;
  data::SyntheticDataset data_;
  std::vector<std::shared_ptr<const nn::Tensor>> images_;
  std::vector<std::size_t> labels_;
  serving::SharedModel model_;
  profiling::ETProfile et_;  // the served ET profile
  std::shared_ptr<const core::UniformExitDistribution> dist_;
  std::unique_ptr<runtime::LiveElasticEngine> ref_engine_;
  QueueProbe probe_;
  std::unique_ptr<serving::EdgeServer> server_;
  std::unique_ptr<LoadTarget> target_;
};

// live-batch: fp32 trunk, BatchAssembler + one BatchedLiveEngine worker.
class LiveBatch final : public LiveBase {
 public:
  explicit LiveBatch(std::string work_dir) : LiveBase(std::move(work_dir)) {
    config_.name = "live-batch";
    config_.budget = {.workers = 1, .gemm_threads = 1, .program_threads = 1};
    config_.max_batch = 8;
    config_.window = 16 * config_.max_batch;
    config_.nominal_rps = 14000.0;
    config_.paced_rps = 1350.0;
    config_.deadlines_per_item = 11;
    config_.ref_stride = 7;
  }

  ~LiveBatch() override { stop_server(); }

  SetupTimes setup() override {
    SetupTimes t;
    ref_engine_.reset();
    engine_.reset();
    setup_fp32(t);
    t.start_s = timed_s([&] {
      dist_ = std::make_shared<const core::UniformExitDistribution>(
          et_.total_ms());
      engine_ = std::make_unique<runtime::BatchedLiveEngine>(
          model_.net, et_, model_.predictor, kEngineConfig, model_.plan);
      start_server();
    });
    stop_server();
    return t;
  }

  runtime::InferenceOutcome reference(const Request& r) override {
    if (!ref_engine_)
      ref_engine_ = std::move(
          serving::make_worker_engines(model_, et_, kEngineConfig, 1)[0]);
    return ref_engine_->run(*images_[r.item], labels_[r.item], r.deadline_ms,
                            *dist_);
  }

  LoadTarget& start_server() override {
    const serving::batch::MicroBatchRunner runner =
        [this](runtime::ElasticEngine&, const serving::batch::MicroBatch& mb,
               std::size_t, util::Rng&) {
          std::vector<runtime::BatchItem> items;
          items.reserve(mb.size());
          for (const auto& task : mb.tasks) {
            probe_.add(*server_, task);
            items.push_back({.image = task.image.get(),
                             .label = task.label,
                             .deadline_ms = task.deadline_ms});
          }
          BenchSpan span{"bench.run", static_cast<std::int64_t>(
                                          mb.tasks.front().id)};
          return engine_->run_batched(items, *dist_);
        };
    const double first_exit = et_.conv_ms[0] + et_.branch_ms[0];
    server_ = std::make_unique<serving::EdgeServer>(
        et_,
        idle_replicas(et_), runner,
        serving::batch::BatchAssemblerConfig{
            .max_batch = config_.max_batch,
            .max_wait_ms = 2.0,
            .bypass_slack_ms = 1.25 * first_exit},
        server_config(config_.budget.workers, serving::QuantMode::kFp32));
    return make_target();
  }

  ServerReport stop_server() override { return stop_inproc(); }

 private:
  std::size_t arena_bytes_per_worker() const override {
    return engine_ ? engine_->arena_bytes() : 0;
  }
  std::size_t scratch_overflows() const override {
    return engine_ ? engine_->arena_scratch_overflows() : 0;
  }

  std::unique_ptr<runtime::BatchedLiveEngine> engine_;
};

// live-int8: quantized trunk, solo serving on two arena-backed workers.
class LiveInt8 final : public LiveBase {
 public:
  explicit LiveInt8(std::string work_dir) : LiveBase(std::move(work_dir)) {
    config_.name = "live-int8";
    config_.budget = {.workers = 2, .gemm_threads = 1, .program_threads = 0};
    config_.window = 64;
    config_.nominal_rps = 30000.0;
    config_.paced_rps = 3000.0;
    config_.deadlines_per_item = 25;
    config_.ref_stride = 13;
  }

  ~LiveInt8() override { stop_server(); }

  SetupTimes setup() override {
    SetupTimes t;
    ref_engine_.reset();
    engines_.clear();
    setup_fp32(t);
    profiling::CSProfile cs_q8;
    t.quantize_s = timed_s([&] {
      serving::quantize_model(model_);
      et_ = nn::quant::quantized_execution_time(et_);
      cs_q8 = nn::quant::profile_confidence_quant(*model_.quant, *data_.test);
    });
    std::unique_ptr<predictor::CSPredictor> pred_q8;
    t.predictor_train_s += timed_s([&] { pred_q8 = train_predictor(cs_q8); });
    // The served model plans with the predictor retrained on the "-q8"
    // trajectories; weights and arenas stay the frozen ones.
    model_.predictor = std::move(pred_q8);
    t.start_s = timed_s([&] {
      dist_ = std::make_shared<const core::UniformExitDistribution>(
          et_.total_ms());
      engines_ = serving::make_worker_engines(
          model_, et_, kEngineConfig, config_.budget.workers, true);
      start_server();
    });
    stop_server();
    return t;
  }

  runtime::InferenceOutcome reference(const Request& r) override {
    if (!ref_engine_)
      ref_engine_ = std::move(serving::make_worker_engines(
          model_, et_, kEngineConfig, 1, true)[0]);
    return ref_engine_->run(*images_[r.item], labels_[r.item], r.deadline_ms,
                            *dist_);
  }

  LoadTarget& start_server() override {
    // The pool hands its runner the worker's replay replica; the factory
    // records which live engine belongs to which replica.
    slots_.assign(engines_.size(), {});
    auto replicas = idle_replicas(et_);
    serving::EngineFactory factory = [this, replicas](std::size_t w) {
      auto replica = replicas(w);
      slots_.at(w) = {replica.get(), engines_.at(w).get()};
      return replica;
    };
    serving::TaskRunner runner = [this](runtime::ElasticEngine& replica,
                                        const serving::Task& task,
                                        util::Rng&) {
      runtime::LiveElasticEngine* engine = nullptr;
      for (const auto& [key, live] : slots_)
        if (key == &replica) engine = live;
      probe_.add(*server_, task);
      BenchSpan span{"bench.run", static_cast<std::int64_t>(task.id)};
      return engine->run(*task.image, task.label, task.deadline_ms, *dist_);
    };
    server_ = std::make_unique<serving::EdgeServer>(
        et_, std::move(factory), std::move(runner),
        server_config(config_.budget.workers, serving::QuantMode::kInt8));
    server_->registry().set_quant(
        {.enabled = true,
         .weight_bytes = model_.quant_weight_bytes,
         .arena_bytes_per_worker = model_.quant_arena_bytes()});
    return make_target();
  }

  ServerReport stop_server() override { return stop_inproc(); }

 private:
  std::size_t arena_bytes_per_worker() const override {
    return engines_.empty() ? 0 : engines_.front()->arena_bytes();
  }
  std::size_t scratch_overflows() const override {
    std::size_t n = 0;
    for (const auto& e : engines_) n += e->arena_scratch_overflows();
    return n;
  }

  std::vector<std::unique_ptr<runtime::LiveElasticEngine>> engines_;
  /// (replica, live engine) per worker; written by the factory before the
  /// pool's threads start, read-only afterwards.
  std::vector<std::pair<const runtime::ElasticEngine*,
                        runtime::LiveElasticEngine*>>
      slots_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"replay-tcp", "live-batch", "live-int8"};
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& artifacts,
                                        const std::string& work_dir) {
  if (name == "replay-tcp") return std::make_unique<ReplayTcp>(artifacts);
  if (name == "live-batch") return std::make_unique<LiveBatch>(work_dir);
  if (name == "live-int8") return std::make_unique<LiveInt8>(work_dir);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

}  // namespace pb
