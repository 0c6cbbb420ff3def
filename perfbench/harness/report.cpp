#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace pb {

std::map<std::string, SpanStats> analyze_spans(
    const einet::obs::TraceReport& report,
    const std::vector<std::string>& transparent) {
  using einet::obs::EventKind;
  using einet::obs::TraceEvent;
  std::unordered_map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : report.events) {
    if (e.kind != EventKind::kSpan || e.name == nullptr) continue;
    if (std::find(transparent.begin(), transparent.end(), e.name) !=
        transparent.end())
      continue;
    by_tid[e.tid].push_back(&e);
  }

  std::map<std::string, SpanStats> stats;
  for (auto& [tid, spans] : by_tid) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    struct Open {
      const TraceEvent* span;
      double children_us;
    };
    std::vector<Open> stack;
    const auto close = [&stats](const Open& o) {
      SpanStats& s = stats[o.span->name];
      ++s.count;
      s.total_us += o.span->dur_us;
      s.self_us += std::max(0.0, o.span->dur_us - o.children_us);
      s.durations_us.push_back(o.span->dur_us);
    };
    for (const TraceEvent* e : spans) {
      while (!stack.empty() &&
             e->ts_us >= stack.back().span->ts_us + stack.back().span->dur_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().children_us += e->dur_us;
      stack.push_back({e, 0.0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return stats;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[64];
    // Full precision; a non-finite value cannot be expressed in JSON.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << num
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace pb
