// Shared vocabulary of the serving benchmark harness: requests and answers,
// the clock, host counters (CPU time, peak RSS, hypervisor steal), summary
// statistics and the harness's own trace spans.
#pragma once
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/elastic_engine.hpp"

namespace pb {

/// Microseconds on the process tracer's clock, so harness timestamps and the
/// program's own spans share one time base.
[[nodiscard]] double now_us();

/// Busy-wait until `due_us` (now_us clock).
void wait_until_us(double due_us);

/// CPUs the process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restrict the calling thread, and every thread it creates afterwards, to
/// `cpus`.
void set_thread_cpus(const std::vector<int>& cpus);

/// User + system CPU seconds of the whole process (getrusage).
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of the process in MiB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Cumulative host CPU ticks from /proc/stat: steal and total.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostTicks read_host_ticks();
/// Share of host CPU time stolen by the hypervisor between two readings.
[[nodiscard]] double steal_ratio(const HostTicks& a, const HostTicks& b);

/// Linearly interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);
[[nodiscard]] double median(std::vector<double> v);

/// One request of a workload: `key` indexes the fixed evaluation list, `item`
/// the input (CS record or test image), `deadline_ms` the simulated-clock
/// budget until the forced exit.
struct Request {
  std::size_t key = 0;
  std::size_t item = 0;
  double deadline_ms = 0.0;
};

enum class Fate : std::uint8_t {
  kPending,   // no answer (yet)
  kAnswered,  // executed; `outcome` is valid
  kShed,      // refused by admission control (infeasible deadline)
  kRejected,  // refused on queue overflow or after shutdown
  kError,     // transport or protocol failure
};

/// What became of one request, with its timestamps (now_us clock).
struct Answer {
  Request req;
  Fate fate = Fate::kPending;
  einet::runtime::InferenceOutcome outcome;
  double due_us = 0.0;   // open loop: scheduled send instant
  double sent_us = 0.0;  // handed to the program
  double done_us = 0.0;  // answer observed by the harness
};

/// Harness span around one call into a program layer, recorded into the
/// process tracer (category kApp) only while tracing is on. `id` is the
/// request the call serves.
class BenchSpan {
 public:
  BenchSpan(const char* name, std::int64_t id);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  std::int64_t id_;
  bool active_;
  double start_us_ = 0.0;
};

}  // namespace pb
