#include "stats/postmortem.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "util/stats.hpp"

namespace stampede::stats {

namespace {
constexpr double kMb = 1024.0 * 1024.0;
}

Analyzer::Analyzer(const Trace& trace, AnalyzerOptions opts) : trace_(trace), opts_(opts) {
  item_index_.reserve(trace_.items.size());
  for (std::size_t i = 0; i < trace_.items.size(); ++i) {
    item_index_.emplace(trace_.items[i].id, i);
  }

  for (const Event& e : trace_.events) {
    switch (e.type) {
      case EventType::kConsume:
      case EventType::kEmit: {
        auto [it, inserted] = last_use_.try_emplace(e.item, e.t);
        if (!inserted) it->second = std::max(it->second, e.t);
        if (e.type == EventType::kEmit) emits_.push_back(e);
        break;
      }
      case EventType::kDisplay: {
        displays_.push_back(e);
        break;
      }
      case EventType::kFree: {
        free_time_[e.item] = std::clamp(e.t, trace_.t_begin, trace_.t_end);
        break;
      }
      default:
        break;
    }
  }

  // Successful = emitted items plus their full ancestor closure.
  std::deque<ItemId> frontier;
  for (const Event& e : emits_) {
    if (successful_.insert(e.item).second) frontier.push_back(e.item);
  }
  while (!frontier.empty()) {
    const ItemId id = frontier.front();
    frontier.pop_front();
    const ItemRecord* rec = find_item(id);
    if (rec == nullptr) continue;
    for (const ItemId parent : rec->lineage) {
      if (successful_.insert(parent).second) frontier.push_back(parent);
    }
  }
}

const ItemRecord* Analyzer::find_item(ItemId id) const {
  const auto it = item_index_.find(id);
  return it == item_index_.end() ? nullptr : &trace_.items[it->second];
}

std::int64_t Analyzer::perf_window_start() const {
  const auto span = static_cast<double>(trace_.t_end - trace_.t_begin);
  return trace_.t_begin + static_cast<std::int64_t>(span * opts_.warmup_fraction);
}

std::vector<double> Analyzer::emit_latencies_ms() const {
  const std::int64_t cutoff = perf_window_start();
  std::vector<double> latencies;
  latencies.reserve(emits_.size());
  for (const Event& e : emits_) {
    if (e.t < cutoff) continue;
    // Walk the lineage back to the source (lineage-free) ancestors. The
    // trip being completed is that of the frame with the emitted
    // timestamp; prefer a source ancestor with that timestamp (a
    // multi-input stage may also reference slightly older auxiliary
    // inputs), falling back to the earliest root.
    std::int64_t origin_matching = -1;
    std::int64_t origin_any = -1;
    std::deque<ItemId> work{e.item};
    std::unordered_set<ItemId> seen;
    while (!work.empty()) {
      const ItemId id = work.front();
      work.pop_front();
      if (!seen.insert(id).second) continue;
      const ItemRecord* rec = find_item(id);
      if (rec == nullptr) continue;
      if (rec->lineage.empty()) {
        if (rec->ts == e.ts) {
          origin_matching =
              origin_matching < 0 ? rec->t_alloc : std::min(origin_matching, rec->t_alloc);
        }
        origin_any = origin_any < 0 ? rec->t_alloc : std::min(origin_any, rec->t_alloc);
      } else {
        for (const ItemId parent : rec->lineage) work.push_back(parent);
      }
    }
    const std::int64_t origin = origin_matching >= 0 ? origin_matching : origin_any;
    if (origin >= 0 && e.t >= origin) {
      latencies.push_back(static_cast<double>(e.t - origin) / 1e6);
    }
  }
  return latencies;
}

std::vector<StpSample> Analyzer::stp_series(NodeRef node) const {
  std::vector<StpSample> out;
  for (const Event& e : trace_.events) {
    if (e.type == EventType::kStp && e.node == node) {
      out.push_back(StpSample{.t = e.t, .current_ns = e.a, .summary_ns = e.b});
    }
  }
  return out;
}

std::vector<Analyzer::GaugeSample> Analyzer::gauge_series(NodeRef node) const {
  std::vector<GaugeSample> out;
  for (const Event& e : trace_.events) {
    if (e.type == EventType::kGauge && e.node == node) {
      out.push_back(GaugeSample{.t = e.t, .value = e.a, .aux = e.b});
    }
  }
  return out;
}

Analysis Analyzer::run() const {
  Analysis a;
  const std::int64_t t0 = trace_.t_begin;
  const std::int64_t t1 = std::max(trace_.t_end, t0 + 1);

  // ---- performance -----------------------------------------------------------
  const std::int64_t cutoff = perf_window_start();

  // Output-frame instants: sink display refreshes when the sink reported
  // them, otherwise distinct emitted timestamps (first emission per ts).
  std::vector<std::int64_t> emit_times;
  if (!displays_.empty()) {
    for (const Event& e : displays_) {
      if (e.t >= cutoff) emit_times.push_back(e.t);
    }
  } else {
    std::unordered_set<Ts> seen;
    for (const Event& e : emits_) {
      if (e.t < cutoff) continue;
      if (seen.insert(e.ts).second) emit_times.push_back(e.t);
    }
  }
  std::sort(emit_times.begin(), emit_times.end());
  a.perf.frames_emitted = static_cast<std::int64_t>(emit_times.size());

  const double perf_span_s = static_cast<double>(t1 - cutoff) / 1e9;
  if (perf_span_s > 0) {
    a.perf.throughput_fps = static_cast<double>(emit_times.size()) / perf_span_s;
  }
  // σ of per-second window rates.
  if (!emit_times.empty()) {
    StreamingStats window_fps;
    const std::int64_t window = 1'000'000'000;
    std::int64_t wstart = cutoff;
    std::size_t i = 0;
    while (wstart + window <= t1) {
      std::int64_t count = 0;
      while (i < emit_times.size() && emit_times[i] < wstart + window) {
        ++count;
        ++i;
      }
      window_fps.add(static_cast<double>(count));
      wstart += window;
    }
    if (window_fps.count() >= 2) a.perf.throughput_fps_std = window_fps.stddev();
  }

  {
    const std::vector<double> latencies = emit_latencies_ms();
    StreamingStats lat;
    for (const double l : latencies) lat.add(l);
    a.perf.latency_ms_mean = lat.mean();
    a.perf.latency_ms_std = lat.stddev();
    a.perf.latency_ms_p50 = percentile(latencies, 50);
    a.perf.latency_ms_p95 = percentile(latencies, 95);
    a.perf.latency_ms_p99 = percentile(latencies, 99);
  }

  if (emit_times.size() >= 3) {
    StreamingStats gaps;
    for (std::size_t i = 1; i < emit_times.size(); ++i) {
      gaps.add(static_cast<double>(emit_times[i] - emit_times[i - 1]) / 1e6);
    }
    a.perf.jitter_ms = gaps.stddev();
  }

  // ---- memory footprint ------------------------------------------------------
  a.footprint = footprint_from_events(trace_.events, t0, t1);
  {
    const TimeWeightedStats w = a.footprint.weighted();
    a.res.footprint_mb_mean = w.mean() / kMb;
    a.res.footprint_mb_std = w.stddev() / kMb;
    a.res.footprint_mb_peak = w.peak() / kMb;
  }

  // ---- waste accounting ------------------------------------------------------
  double mem_seconds_total = 0.0;
  double mem_seconds_wasted = 0.0;
  double compute_total_ns = 0.0;
  double compute_wasted_ns = 0.0;

  std::vector<std::int64_t> igc_alloc, igc_free, igc_bytes;
  for (const ItemRecord& rec : trace_.items) {
    ++a.res.items_total;
    const auto itf = free_time_.find(rec.id);
    const std::int64_t t_free = itf == free_time_.end() ? t1 : itf->second;
    const std::int64_t t_alloc = std::clamp(rec.t_alloc, t0, t1);
    const double life = static_cast<double>(std::max<std::int64_t>(0, t_free - t_alloc));
    const double byte_seconds = static_cast<double>(rec.bytes) * life;
    mem_seconds_total += byte_seconds;

    const bool ok = successful(rec.id);
    if (!ok) {
      ++a.res.items_wasted;
      mem_seconds_wasted += byte_seconds;
    } else {
      // IGC keeps successful items only, freeing each at last use.
      const auto itu = last_use_.find(rec.id);
      const std::int64_t t_use = itu == last_use_.end() ? t_alloc : std::clamp(itu->second, t0, t1);
      igc_alloc.push_back(t_alloc);
      igc_free.push_back(std::max(t_alloc, t_use));
      igc_bytes.push_back(rec.bytes);
    }
  }

  for (const Event& e : trace_.events) {
    switch (e.type) {
      case EventType::kCompute: {
        compute_total_ns += static_cast<double>(e.a);
        if (e.item != 0 && !successful(e.item)) {
          compute_wasted_ns += static_cast<double>(e.a);
        }
        break;
      }
      case EventType::kOverhead:
        compute_total_ns += static_cast<double>(e.a);
        break;
      case EventType::kElide:
        a.res.elided_compute_ms += static_cast<double>(e.a) / 1e6;
        break;
      case EventType::kDrop:
        ++a.res.drops;
        break;
      default:
        break;
    }
  }

  a.res.total_compute_ms = compute_total_ns / 1e6;
  a.res.wasted_compute_ms = compute_wasted_ns / 1e6;
  if (mem_seconds_total > 0) {
    a.res.wasted_mem_pct = 100.0 * mem_seconds_wasted / mem_seconds_total;
  }
  if (compute_total_ns > 0) {
    a.res.wasted_comp_pct = 100.0 * compute_wasted_ns / compute_total_ns;
  }

  // ---- Ideal GC bound --------------------------------------------------------
  // Remote replicas of successful items are part of even the ideal cost
  // (the consumer genuinely needs the copy while using it): include their
  // residency intervals. Replicate/replica-free pairs are matched FIFO per
  // (item, cluster node).
  {
    std::map<std::pair<ItemId, std::int64_t>, std::deque<std::int64_t>> open;
    for (const Event& e : trace_.events) {
      if (e.type == EventType::kReplicate) {
        if (!successful(e.item)) continue;
        open[{e.item, e.b}].push_back(std::clamp(e.t, t0, t1));
      } else if (e.type == EventType::kReplicaFree) {
        const auto it = open.find({e.item, e.b});
        if (it == open.end() || it->second.empty()) continue;
        igc_alloc.push_back(it->second.front());
        igc_free.push_back(std::clamp(e.t, t0, t1));
        igc_bytes.push_back(e.a);
        it->second.pop_front();
      }
    }
    for (const auto& [key, starts] : open) {
      for (const std::int64_t start : starts) {
        igc_alloc.push_back(start);
        igc_free.push_back(t1);
        // Bytes unknown here without the matching free; look the item up.
        const ItemRecord* rec = find_item(key.first);
        igc_bytes.push_back(rec != nullptr ? rec->bytes : 0);
      }
    }
  }
  a.igc_footprint = footprint_from_intervals(igc_alloc, igc_free, igc_bytes, t0, t1);
  {
    const TimeWeightedStats w = a.igc_footprint.weighted();
    a.res.igc_mb_mean = w.mean() / kMb;
    a.res.igc_mb_std = w.stddev() / kMb;
  }
  return a;
}

}  // namespace stampede::stats
