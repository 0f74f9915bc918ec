/// \file registry.hpp
/// \brief Live metrics registry: striped counters, gauges, histograms.
///
/// The postmortem plane (stats::Recorder -> trace_io -> Analyzer) only
/// answers questions after a run; this registry is the *live* plane the
/// paper's feedback story implies — the signals the controller acts on
/// (current-STP, summary-STP, occupancy, drops) observable while the
/// node serves traffic, exported by telemetry::Exporter.
///
/// Design constraints, in order:
///
///  1. **Hot-path increments are allocation-free and lock-free.** A
///     `Counter::add` is one relaxed `fetch_add` on a per-thread stripe;
///     a `Histogram::observe` is a bounded linear bucket scan plus two
///     relaxed `fetch_add`s. Both are `ARU_HOT_PATH` roots, so
///     aru-analyze proves nothing allocating or blocking is reachable
///     from them.
///  2. **Registration is a startup-time operation.** `counter()` /
///     `gauge()` / `histogram()` allocate and take the registry mutex —
///     they are `ARU_ALLOCATES` and must never appear on a hot path (the
///     analyze fixture `telemetry_register` proves the checker catches
///     this). Returned references stay valid for the registry's
///     lifetime; series storage is address-stable.
///  3. **Stripes trade memory for contention.** Each counter/histogram
///     holds `kStripes` cache-line-aligned cells; a thread picks its
///     stripe once (thread-local id) and never contends with readers.
///     Reads sum the stripes — each stripe is monotone, so a summed
///     counter read is monotone across sequential reads too.
///
/// The registry mutex ranks `kTelemetry` (24): below `kNet`/`kBuffer`
/// so `/status` snapshot callbacks may read channel occupancy
/// (Channel::mu_, rank 30) under it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::telemetry {

/// Stripe count per counter/histogram. Power of two; a thread maps to a
/// fixed stripe via a thread-local id, so up to kStripes threads
/// increment with zero cache-line sharing.
inline constexpr std::size_t kStripes = 8;

namespace detail {
/// This thread's stripe slot (assigned once per thread, round-robin).
ARU_HOT_PATH std::size_t stripe_index();
}  // namespace detail

/// Monotone event counter. Increment from any thread; read anywhere.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// One relaxed fetch_add on this thread's stripe. Allocation-free.
  ARU_HOT_PATH void add(std::uint64_t n = 1) {
    cells_[detail::stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum of all stripes. Monotone across sequential calls (each stripe
  /// is monotone), though a concurrent add may or may not be included.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  friend class Registry;
  Counter() = default;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// Last-writer-wins instantaneous value (occupancy, STP, bytes parked).
/// A single atomic: gauges are set, not incremented, on hot paths.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  ARU_HOT_PATH void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  ARU_HOT_PATH void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;

  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram (Prometheus-style cumulative `le` buckets).
/// Bucket bounds are fixed at registration; observations land in the
/// first bucket whose bound is >= the value, or the implicit +Inf
/// overflow bucket.
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 32;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bounded bucket scan + two relaxed fetch_adds. Allocation-free.
  ARU_HOT_PATH void observe(std::int64_t v) {
    std::size_t b = 0;
    while (b < n_bounds_ && v > bounds_[b]) ++b;
    Row& row = rows_[detail::stripe_index()];
    row.buckets[b].fetch_add(1, std::memory_order_relaxed);
    row.sum.fetch_add(v, std::memory_order_relaxed);
  }

  /// Cumulative view: counts[i] = observations <= bounds()[i];
  /// counts[n_bounds()] = total count (the +Inf bucket).
  struct Snapshot {
    std::array<std::uint64_t, kMaxBuckets + 1> cumulative{};
    std::int64_t sum = 0;
    std::uint64_t count = 0;
  };
  Snapshot snapshot() const;

  std::span<const std::int64_t> bounds() const { return {bounds_.data(), n_bounds_}; }

 private:
  friend class Registry;
  explicit Histogram(std::span<const std::int64_t> bounds);

  struct alignas(64) Row {
    std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> buckets{};
    std::atomic<std::int64_t> sum{0};
  };
  std::array<std::int64_t, kMaxBuckets> bounds_{};
  std::size_t n_bounds_ = 0;
  std::array<Row, kStripes> rows_;
};

/// Owns every metric series and renders the exposition formats. One per
/// Runtime; instrumented layers hold raw pointers to series they
/// registered at construction time (stable for the registry's lifetime).
class Registry {
 public:
  /// Label set attached to a series, e.g. {{"channel", "frames"}}.
  using Labels = std::vector<std::pair<std::string, std::string>>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registration: startup-time only (allocates, takes the registry
  /// mutex). Re-registering the same (name, labels) returns the
  /// existing series — registration is idempotent, so two links to the
  /// same channel share one counter. Throws std::logic_error if the
  /// name+labels already exist with a different metric kind.
  ARU_ALLOCATES Counter& counter(std::string_view name, std::string_view help,
                                 Labels labels = {});
  ARU_ALLOCATES Gauge& gauge(std::string_view name, std::string_view help,
                             Labels labels = {});
  ARU_ALLOCATES Histogram& histogram(std::string_view name, std::string_view help,
                                     std::span<const std::int64_t> bounds,
                                     Labels labels = {});

  /// Polled series: `fn` is evaluated at render time under the registry
  /// mutex (so it must not acquire any rank <= kTelemetry). For values
  /// another subsystem already maintains (e.g. MemoryTracker) —
  /// zero hot-path cost, no double bookkeeping.
  ARU_ALLOCATES void polled_counter(std::string_view name, std::string_view help,
                                    Labels labels, std::function<double()> fn);
  ARU_ALLOCATES void polled_gauge(std::string_view name, std::string_view help,
                                  Labels labels, std::function<double()> fn);

  /// `/status` JSON sections: `fn` returns a raw JSON value rendered as
  /// `"key": <value>` in the snapshot object, evaluated under the
  /// registry mutex (same rank rule as polled series; unregistration is
  /// therefore race-free against rendering). Returns a handle for
  /// remove_status — used by series whose owner can die before the
  /// registry (e.g. a RemoteChannel link).
  ARU_ALLOCATES std::uint64_t add_status(std::string key,
                                         std::function<std::string()> fn);
  void remove_status(std::uint64_t handle);

  /// Extra exposition blocks: `fn` returns raw Prometheus text appended
  /// verbatim (newline-terminated) after this registry's own series in
  /// render_prometheus(). Evaluated under the registry mutex, so `fn`
  /// must not acquire any rank <= kTelemetry. Used by the control plane
  /// to merge scraped per-worker metrics into one fleet endpoint.
  /// Returns a handle for remove_exposition.
  ARU_ALLOCATES std::uint64_t add_exposition(std::function<std::string()> fn);
  void remove_exposition(std::uint64_t handle);

  /// Prometheus text exposition format 0.0.4.
  ARU_ALLOCATES std::string render_prometheus() const;
  /// JSON object with one member per registered status section.
  ARU_ALLOCATES std::string render_status() const;

 private:
  enum class Kind : std::uint8_t {
    kCounter,
    kGauge,
    kHistogram,
    kPolledCounter,
    kPolledGauge,
  };

  struct Series {
    Kind kind;
    std::string name;
    std::string help;
    std::string labels_body;  ///< rendered `k="v",...` (no braces), "" if none
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    std::function<double()> poll;
  };

  struct StatusSection {
    std::uint64_t handle;
    std::string key;
    std::function<std::string()> fn;
  };

  struct ExpositionBlock {
    std::uint64_t handle;
    std::function<std::string()> fn;
  };

  Series& find_or_insert(Kind kind, std::string_view name, std::string_view help,
                         const Labels& labels) REQUIRES(mu_);

  mutable util::Mutex mu_{util::LockRank::kTelemetry, "telemetry::Registry"};
  std::vector<std::unique_ptr<Series>> series_ GUARDED_BY(mu_);
  std::vector<StatusSection> status_ GUARDED_BY(mu_);
  std::vector<ExpositionBlock> expositions_ GUARDED_BY(mu_);
  std::uint64_t next_handle_ GUARDED_BY(mu_) = 1;
};

/// Escapes `s` as the contents of a JSON (and Prometheus label) string
/// literal: backslash, double quote, and control characters.
std::string json_escape(std::string_view s);

}  // namespace stampede::telemetry
