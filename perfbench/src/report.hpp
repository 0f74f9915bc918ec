/// \file report.hpp
/// \brief Metric names, units and the result line of the end-to-end
///        benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Task and channel names of the benchmarked (tracker) workloads, which
/// get per-task and per-channel metrics. The relays, run on request, get
/// the layer-wide ones; their deployment lines show generator lateness.
const std::vector<std::string>& all_tasks();
const std::vector<std::string>& all_channels();

/// Every metric a --trace 0 run reports in its result line, with its
/// unit, in order.
std::vector<Metric> end_to_end_names();
/// End-to-end metrics printed in the report but left out of the result
/// line: on a shared VM the p99 latency swings by 10-25% between runs and
/// the peak RSS is bimodal (200 or 300 MB on tracker-net, as the trace's
/// vectors do or do not double once more); the failure share is 0 by
/// design (the result line carries `failed`).
std::vector<Metric> report_only_names();
/// Every metric a --trace 1 run reports, with its unit, in order.
std::vector<Metric> per_layer_names();

/// Orders `values` by `names` (a name missing from `values` reads 0).
std::vector<Metric> fill(const std::vector<Metric>& names,
                         const std::map<std::string, double>& values);

/// The result line: {"correct": ..., "attempted": ..., "failed": ...,
/// "metrics": {name: {"value": v, "unit": u}, ...}}. Values keep all
/// their digits.
std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics);

/// Formats a number for JSON (finite, shortest round-trip form).
std::string json_number(double v);

}  // namespace perfbench
