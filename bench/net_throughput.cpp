/// \file net_throughput.cpp
/// \brief Loopback micro-benchmarks of the networked transport: put and
///        get round-trip latency and sustained items/bytes per second at
///        the paper's payload scales (1 KB location records up to 1 MB
///        frame-sized items).
///
/// Each benchmark stands up an in-process ChannelServer on an ephemeral
/// loopback port and drives it through a RemoteChannel proxy, so the
/// measured path is the full production stack: wire encode → TCP →
/// server decode → channel op → ack encode → TCP → proxy decode. The
/// server does half of that work on its own thread, so every benchmark
/// reports wall time (UseRealTime), not the client thread's CPU time.
///
/// Run via bench/run_bench.sh to emit BENCH_net.json at the repo root.
#include <benchmark/benchmark.h>

#include <memory>
#include <stop_token>

#include "net/remote_channel.hpp"
#include "runtime/runtime.hpp"

namespace stampede {
namespace {

/// One served channel + one attached proxy on loopback.
struct Loop {
  Runtime rt;
  Channel* channel = nullptr;
  std::unique_ptr<net::ChannelServer> server;
  std::unique_ptr<net::RemoteChannel> proxy;
  std::stop_source stop;

  /// `producers`/`consumers` are the remote slot counts; the proxy claims
  /// slot 0 on each side that has one.
  Loop(int producers, int consumers) {
    channel = &rt.add_channel({.name = "bench"});
    server = std::make_unique<net::ChannelServer>(
        rt, std::vector<net::ServedChannel>{{.channel = channel,
                                             .remote_producers = producers,
                                             .remote_consumers = consumers}});
    server->start();
    proxy = std::make_unique<net::RemoteChannel>(
        rt, net::RemoteChannelConfig{
                .name = "bench",
                .transport = {.port = server->port()},
                .producer_key = producers > 0 ? 0 : -1,
                .consumer_key = consumers > 0 ? 0 : -1,
            });
  }

  ~Loop() { server->stop(); }

  std::shared_ptr<Item> item(Timestamp ts, std::size_t bytes) {
    return std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                  /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
  }
};

/// Put round trip: one put, then drain_puts until its ack is back —
/// encode + send + server-side materialize + channel put + the coalesced
/// PutAck with the folded summary-STP. The wall latency of one
/// acknowledged put on the windowed path. The channel has no consumers,
/// so stored items die on arrival and occupancy stays flat.
void BM_NetPutRtt(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/0);
  Timestamp ts = 0;
  // Warm up: first put pays the connect + Hello handshake.
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  loop.proxy->drain_puts(loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
    loop.proxy->drain_puts(loop.stop.get_token());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutRtt)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20)->UseRealTime();

/// Pipelined put throughput (wire v3): puts return once queued in the
/// bounded in-flight window, envelopes batch into scatter/gather flushes,
/// and the server settles bursts with coalesced cumulative acks. Compare
/// items/s against BM_NetPutRtt at the same size to read the win over
/// waiting for each put's ack.
void BM_NetPutPipelined(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/0);
  Timestamp ts = 0;
  // Warm up: first put pays the connect + Hello handshake.
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  loop.proxy->drain_puts(loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
  }
  // Settle the in-flight tail so every counted item was actually acked.
  loop.proxy->drain_puts(loop.stop.get_token());
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutPipelined)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20)->UseRealTime();

/// Get round trip: a local put makes the channel ready, then the proxy
/// pulls the item over the wire (server-side get + item payload + backward
/// summary-STP in the reply).
void BM_NetGetRtt(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/0, /*consumers=*/1);
  Timestamp ts = 0;
  loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());

  for (auto _ : state) {
    loop.channel->put(loop.item(ts++, bytes), loop.stop.get_token());
    benchmark::DoNotOptimize(
        loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetGetRtt)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20)->UseRealTime();

/// Producer→consumer relay through the served channel: the proxy puts on
/// one link and gets on the other, so each iteration crosses the wire
/// twice (the two-process pipeline hop distributed_tracker runs at full
/// scale). No drain between them: a put onto an idle link leaves at once,
/// and a get first sends whatever its proxy has staged.
void BM_NetPutGetPipe(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Loop loop(/*producers=*/1, /*consumers=*/1);
  Timestamp ts = 0;
  (void)loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token());
  (void)loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token());

  for (auto _ : state) {
    benchmark::DoNotOptimize(loop.proxy->put(loop.item(ts++, bytes), loop.stop.get_token()));
    benchmark::DoNotOptimize(
        loop.proxy->get_latest(aru::kUnknownStp, kNoTimestamp, loop.stop.get_token()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_NetPutGetPipe)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20)->UseRealTime();

}  // namespace
}  // namespace stampede

BENCHMARK_MAIN();
