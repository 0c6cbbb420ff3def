// Trace analysis (per-span-name time, self time and counts) and the result
// line the harness prints last.
#pragma once
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace pb {

/// Per-name totals over the complete spans of one trace.
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  /// Duration minus the time covered by direct child spans on the same
  /// thread.
  double self_us = 0.0;
  std::vector<double> durations_us;
};

/// Nest the report's complete spans per thread (a child lies inside its
/// parent's interval) and total them per name. Spans named in `transparent`
/// are left out of the tree, so their children count as children of their
/// parent.
[[nodiscard]] std::map<std::string, SpanStats> analyze_spans(
    const einet::obs::TraceReport& report,
    const std::vector<std::string>& transparent);

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The final line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace pb
