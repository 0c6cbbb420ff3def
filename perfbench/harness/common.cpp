#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

namespace pb {

double now_us() { return einet::obs::Tracer::instance().now_us(); }

void wait_until_us(double due_us) {
  // Spin: a sleeping generator pays the host's timer and vCPU wake-up
  // latency (up to milliseconds) as lateness.
  while (now_us() < due_us) {
  }
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void set_thread_cpus(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks read_host_ticks() {
  HostTicks t;
  std::ifstream in{"/proc/stat"};
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields{line.substr(4)};
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already part of user/nice, so only the first eight add up.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_ratio(const HostTicks& a, const HostTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

BenchSpan::BenchSpan(const char* name, std::int64_t id)
    : name_(name),
      id_(id),
      active_(einet::obs::Tracer::instance().enabled()) {
  if (active_) start_us_ = now_us();
}

BenchSpan::~BenchSpan() {
  if (!active_) return;
  einet::obs::complete(name_, einet::obs::Category::kApp, start_us_,
                       now_us() - start_us_,
                       einet::obs::Args{.task_id = id_});
}

}  // namespace pb
