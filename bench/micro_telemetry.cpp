/// \file micro_telemetry.cpp
/// \brief Micro-benchmarks of the live telemetry plane: the per-event
///        cost a series increment adds to an instrumented hot path.
///
/// The registry's design target is <= ~10 ns per uncontended counter
/// increment (one relaxed fetch_add on a per-thread stripe) — cheap
/// enough that Channel/Transport hooks are unconditional. The threaded
/// variants measure what the stripes buy: kStripes cache-line-isolated
/// cells vs every thread hammering one shared atomic.
///
/// Run via bench/run_bench.sh to emit BENCH_telemetry.json at the repo
/// root — every PR appends to that perf trajectory.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>

#include "telemetry/registry.hpp"

namespace stampede::telemetry {
namespace {

/// One uncontended counter increment: the unconditional per-event cost
/// the channel/transport hooks pay.
void BM_CounterAdd(benchmark::State& state) {
  Registry reg;
  Counter& c = reg.counter("bench_total", "benchmark counter");
  for (auto _ : state) c.add();
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

/// Gauge store — the occupancy/STP update path.
void BM_GaugeSet(benchmark::State& state) {
  Registry reg;
  Gauge& g = reg.gauge("bench_gauge", "benchmark gauge");
  std::int64_t v = 0;
  for (auto _ : state) g.set(++v);
  benchmark::DoNotOptimize(g.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

/// Histogram observe: bounded bucket scan + two relaxed fetch_adds. The
/// arg sweeps where the value lands, i.e. how far the scan walks the
/// 8-bound rpc-latency-style bucket layout.
void BM_HistogramObserve(benchmark::State& state) {
  Registry reg;
  static constexpr std::int64_t kBounds[] = {1'000,      10'000,      100'000,
                                             1'000'000,  10'000'000,  100'000'000,
                                             1'000'000'000, 10'000'000'000};
  Histogram& h = reg.histogram("bench_hist", "benchmark histogram", kBounds);
  const std::int64_t v = state.range(0);
  for (auto _ : state) h.observe(v);
  benchmark::DoNotOptimize(h.snapshot().count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve)->Arg(500)->Arg(5'000'000)->Arg(50'000'000'000);

/// Contended striped counter: every thread increments the same series,
/// landing on its own cache-line-aligned stripe.
void BM_CounterAddStriped(benchmark::State& state) {
  static Registry reg;
  static Counter& c = reg.counter("bench_striped_total", "striped contended");
  for (auto _ : state) c.add();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddStriped)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// The naive alternative the stripes replace: all threads fetch_add one
/// shared atomic, bouncing its cache line on every increment. The gap vs
/// BM_CounterAddStriped at >1 threads is what the stripe memory buys.
void BM_CounterAddSharedAtomic(benchmark::State& state) {
  static std::atomic<std::uint64_t> shared{0};
  for (auto _ : state) shared.fetch_add(1, std::memory_order_relaxed);
  benchmark::DoNotOptimize(shared.load(std::memory_order_relaxed));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAddSharedAtomic)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Render cost for a realistically sized registry (what a scrape pays,
/// off the hot path, under the kTelemetry mutex): 64 counters + 16
/// gauges + 4 histograms.
void BM_RenderPrometheus(benchmark::State& state) {
  Registry reg;
  static constexpr std::int64_t kBounds[] = {1'000, 1'000'000, 1'000'000'000};
  // Labels are built by append, not `"c" + std::to_string(i)`: the
  // temporary-chain form trips GCC 12's bogus -Wrestrict at -O2
  // (PR105329) under -Werror.
  const auto label = [](const char* prefix, int i) {
    std::string s = prefix;
    s += std::to_string(i);
    return s;
  };
  for (int i = 0; i < 64; ++i) {
    reg.counter("bench_render_total", "render counter", {{"ch", label("c", i)}})
        .add(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 16; ++i) {
    reg.gauge("bench_render_gauge", "render gauge", {{"t", label("t", i)}}).set(i);
  }
  for (int i = 0; i < 4; ++i) {
    reg.histogram("bench_render_hist", "render histogram", kBounds,
                  {{"h", label("h", i)}})
        .observe(i * 1'000);
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string out = reg.render_prometheus();
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["exposition_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RenderPrometheus);

}  // namespace
}  // namespace stampede::telemetry

BENCHMARK_MAIN();
