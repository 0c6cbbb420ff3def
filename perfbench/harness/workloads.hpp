// The benchmark's workloads. Each one owns a deployment of the program (its
// artifacts, predictor, engines and a serving instance) and exposes the
// same lifecycle to the harness: set up, start a server, drive load through
// it, stop it and read what the program exported.
#pragma once
#include <memory>
#include <string>
#include <vector>

#include "drivers.hpp"
#include "net/server.hpp"
#include "serving/metrics.hpp"

namespace pb {

/// Busy threads of one workload: serving workers x GEMM threads, program
/// threads (TCP event loop, batch assembler) and the load generator.
struct ThreadBudget {
  std::size_t workers = 1;
  std::size_t gemm_threads = 1;
  std::size_t program_threads = 0;
  std::size_t generator = 1;
  [[nodiscard]] std::size_t busy() const {
    return workers * gemm_threads + program_threads + generator;
  }
};

struct WorkloadConfig {
  std::string name;
  ThreadBudget budget;
  /// Closed-loop saturation window (requests outstanding).
  std::size_t window = 16;
  /// Saturation throughput this host reaches (requests per second, shed
  /// answers included); sizes the fixed saturation request count.
  double nominal_rps = 0.0;
  /// Open-loop arrival rate of the paced phase (requests per second).
  double paced_rps = 0.0;
  /// Deadlines drawn per input in the fixed evaluation list.
  std::size_t deadlines_per_item = 1;
  /// Reference-check every k-th evaluation key.
  std::size_t ref_stride = 1;
  /// Batched serving: the assembler's max batch (0 = unbatched).
  std::size_t max_batch = 0;
};

/// Seconds spent in each deployment stage of one set-up.
struct SetupTimes {
  double load_s = 0.0;
  double profile_s = 0.0;
  double predictor_train_s = 0.0;
  double freeze_s = 0.0;
  double quantize_s = 0.0;
  double start_s = 0.0;
  [[nodiscard]] double total() const {
    return load_s + profile_s + predictor_train_s + freeze_s + quantize_s +
           start_s;
  }
};

/// What a stopped serving instance exported.
struct ServerReport {
  einet::serving::MetricsSnapshot snap;
  bool has_net = false;
  einet::net::NetMetricsSnapshot net;
  /// Admission-queue wait of every executed task (ms), measured by the
  /// harness's runner on entry: server uptime minus admit stamp minus
  /// assembler dwell.
  std::vector<double> queue_ms;
};

/// Static facts of the current deployment.
struct DeploymentFacts {
  std::size_t weight_bytes = 0;
  std::size_t quant_weight_bytes = 0;
  std::size_t arena_bytes_per_worker = 0;
  std::size_t scratch_overflows = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const WorkloadConfig& config() const = 0;
  /// One-off fixture work outside deployment set-up (not gated), using
  /// `threads` GEMM threads; returns its seconds. Runs before the harness
  /// starts any thread.
  virtual double prepare(std::size_t /*threads*/) { return 0.0; }
  /// Build a fresh deployment, replacing the previous one, including one
  /// server start (which is stopped again before returning).
  virtual SetupTimes setup() = 0;
  /// Inputs the evaluation list draws from, and the served ET total T that
  /// deadlines scale with.
  [[nodiscard]] virtual std::size_t num_items() const = 0;
  [[nodiscard]] virtual double horizon_ms() const = 0;
  /// Single-threaded in-process run of the same engine kind.
  [[nodiscard]] virtual einet::runtime::InferenceOutcome reference(
      const Request& r) = 0;
  /// Start a serving instance over the current deployment.
  virtual LoadTarget& start_server() = 0;
  /// Drain and stop it; returns what it exported.
  virtual ServerReport stop_server() = 0;
  [[nodiscard]] virtual DeploymentFacts facts() const = 0;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// `artifacts` holds the tracked ET/CS profiles; `work_dir` is scratch space
/// for fixture weights.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, const std::string& artifacts,
    const std::string& work_dir);

}  // namespace pb
