/// \file bench_math.hpp
/// \brief Percentiles, the open-loop due-time schedule and CPU/RSS probes
///        used by the end-to-end benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Percentile `p` (0..100) of `v` by linear interpolation between closest
/// ranks (numpy's default "linear" method). Sorts `v` in place. Throws on
/// an empty sample or p outside [0, 100].
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile: p outside [0, 100]");
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Number of samples strictly above percentile `p`'s rank: a percentile is
/// reported only when at least ten samples lie beyond it.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto at = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n > at ? n - at : 0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Open-loop load schedule: `per_tick` items are due at every tick of
/// `tick_ns`, starting at `t0_ns`. Item k is due at t0 + (k / per_tick)
/// ticks, whatever the system under test does — a stalled system makes
/// later items late, and their latency is charged from the due time.
class DueSchedule {
 public:
  DueSchedule(std::int64_t t0_ns, std::int64_t tick_ns, std::int64_t per_tick)
      : t0_(t0_ns), tick_(tick_ns), per_tick_(per_tick) {
    if (tick_ns <= 0 || per_tick <= 0) throw std::invalid_argument("DueSchedule: bad rate");
  }

  /// Due instant of item `k` (k >= 0).
  std::int64_t due(std::int64_t k) const { return t0_ + (k / per_tick_) * tick_; }

 private:
  std::int64_t t0_;
  std::int64_t tick_;
  std::int64_t per_tick_;
};

/// How late a load generator ran: for each sent item, send instant minus
/// due instant (never negative: an early send counts as on time).
class Lateness {
 public:
  void add(std::int64_t due_ns, std::int64_t sent_ns) {
    const std::int64_t late = std::max<std::int64_t>(0, sent_ns - due_ns);
    ++n_;
    sum_ += late;
    max_ = std::max(max_, late);
  }
  double mean_us() const { return n_ > 0 ? static_cast<double>(sum_) / 1e3 / n_ : 0.0; }
  double max_us() const { return static_cast<double>(max_) / 1e3; }

 private:
  std::int64_t n_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace perfbench
