/// \file postmortem.hpp
/// \brief Postmortem trace analysis — the paper's §4 measurement program.
///
/// Derives every metric the paper reports from a recorded trace:
///
///  * **Performance** (Fig. 10): throughput (successful frames/second,
///    mean and σ over one-second windows), end-to-end latency (frame
///    creation → sink emission, via lineage back-walk), jitter (σ of the
///    time difference between successive output frames).
///  * **Resource usage** (Figs. 6-9): time-weighted mean/σ memory
///    footprint, % wasted memory (byte·seconds of items that never reach
///    the pipeline end), % wasted computation (production cost of such
///    items over total task work), and the **Ideal Garbage Collector**
///    bound (footprint if doomed items were never allocated and successful
///    items were freed at last use).
///
/// An item is *successful* iff it is an emitted item or an ancestor (via
/// recorded lineage) of one — matching the paper's marking of "items that
/// do not make it to the end of the pipeline".
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "stats/events.hpp"
#include "stats/timeseries.hpp"

namespace stampede::stats {

struct AnalyzerOptions {
  /// Fraction of the run discarded as warm-up for *performance* metrics
  /// (footprint metrics always use the full window, like the paper's
  /// graphs).
  double warmup_fraction = 0.0;
};

/// Fig.-10 metrics.
struct PerfMetrics {
  std::int64_t frames_emitted = 0;  ///< distinct timestamps that reached a sink
  double throughput_fps = 0.0;
  double throughput_fps_std = 0.0;  ///< σ across one-second windows
  double latency_ms_mean = 0.0;
  double latency_ms_std = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p95 = 0.0;
  double latency_ms_p99 = 0.0;
  double jitter_ms = 0.0;
};

/// Fig.-6/7 metrics.
struct ResourceMetrics {
  double footprint_mb_mean = 0.0;
  double footprint_mb_std = 0.0;
  double footprint_mb_peak = 0.0;
  double igc_mb_mean = 0.0;   ///< Ideal-GC bound
  double igc_mb_std = 0.0;
  double wasted_mem_pct = 0.0;
  double wasted_comp_pct = 0.0;
  double total_compute_ms = 0.0;   ///< all task work incl. mgmt overhead
  double wasted_compute_ms = 0.0;
  double elided_compute_ms = 0.0;  ///< DGC computation elimination savings
  std::int64_t items_total = 0;
  std::int64_t items_wasted = 0;
  std::int64_t drops = 0;  ///< items reclaimed without any consumption
};

struct Analysis {
  PerfMetrics perf;
  ResourceMetrics res;
  FootprintSeries footprint;      ///< actual footprint over time (Fig. 8/9)
  FootprintSeries igc_footprint;  ///< IGC bound over time (Fig. 8/9 leftmost)
};

/// One summary-STP feedback sample (for filter/noise ablations).
struct StpSample {
  std::int64_t t = 0;
  std::int64_t current_ns = 0;
  std::int64_t summary_ns = 0;
};

class Analyzer {
 public:
  explicit Analyzer(const Trace& trace, AnalyzerOptions opts = {});

  /// Runs the full analysis.
  Analysis run() const;

  /// The set of successful item ids (emitted or ancestor of emitted).
  const std::unordered_set<ItemId>& successful_items() const { return successful_; }

  /// True if `id` reached the end of the pipeline (directly or via a
  /// descendant).
  bool successful(ItemId id) const { return successful_.count(id) != 0; }

  /// Latency of each emission, in milliseconds (emit time minus the
  /// earliest ancestor source item's allocation time).
  std::vector<double> emit_latencies_ms() const;

  /// summary-STP feedback samples recorded by one node.
  std::vector<StpSample> stp_series(NodeRef node) const;

  /// Monitor gauge samples for one buffer node (node = -1: the global
  /// footprint gauge). Requires RuntimeConfig::monitor_period > 0.
  struct GaugeSample {
    std::int64_t t = 0;
    std::int64_t value = 0;    ///< items stored (or total bytes for global)
    std::int64_t aux = 0;      ///< cluster-node bytes (or peak for global)
  };
  std::vector<GaugeSample> gauge_series(NodeRef node) const;

  const Trace& trace() const { return trace_; }

 private:
  const ItemRecord* find_item(ItemId id) const;
  std::int64_t perf_window_start() const;

  const Trace& trace_;
  AnalyzerOptions opts_;
  std::unordered_map<ItemId, std::size_t> item_index_;
  std::unordered_map<ItemId, std::int64_t> last_use_;   ///< last consume/emit instant
  std::unordered_map<ItemId, std::int64_t> free_time_;  ///< clamped to t_end
  std::unordered_set<ItemId> successful_;
  std::vector<Event> emits_;
  std::vector<Event> displays_;
};

}  // namespace stampede::stats
