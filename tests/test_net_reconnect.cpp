/// \file test_net_reconnect.cpp
/// \brief Link-failure semantics of the networked transport: an outage
///        must degrade to local drops while the producer keeps pacing
///        against the last received summary-STP, reconnection must follow
///        bounded exponential backoff, and a resumed link must carry items
///        again — with the whole story visible in the trace (kDrop,
///        kReconnect, kNetTx/kNetRx events).
///
/// Two tiers: an in-process server bounce (runs everywhere, including the
/// TSan preset) and a real two-process test that SIGKILLs an spd_node
/// child mid-stream and respawns it on the same port.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/peer_arena.hpp"
#include "net/remote_channel.hpp"
#include "runtime/pool.hpp"
#include "runtime/runtime.hpp"
#include "util/mutex.hpp"

extern char** environ;

namespace stampede::net {
namespace {

constexpr Nanos kBackoffInitial = millis(5);
constexpr Nanos kBackoffMax = millis(50);

/// Fast failure tuning so outages stay quick to detect. Every put rides
/// the pipelined window: put() returns once the item is queued, and a
/// per-put verdict (stored, closed, the summary-STP on the ack) is read
/// after drain_puts() has collected the acks.
TransportConfig fast_transport(std::uint16_t port) {
  return {.port = port,
          .connect_timeout = millis(200),
          .io_timeout = millis(500),
          .backoff_initial = kBackoffInitial,
          .backoff_max = kBackoffMax};
}

std::shared_ptr<Item> make_item(Runtime& rt, Timestamp ts, std::size_t bytes = 128) {
  return std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
}

/// Counts trace events of one type, optionally restricted to one node.
std::vector<stats::Event> events_of(const stats::Trace& trace, stats::EventType type,
                                    NodeId node = kNoNode) {
  std::vector<stats::Event> out;
  for (const auto& e : trace.events) {
    if (e.type == type && (node == kNoNode || e.node == node)) out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// In-process server bounce (TSan-covered tier)
// ---------------------------------------------------------------------------

TEST(NetReconnect, OutageDropsLocallyThenResumes) {
  // ARU on: the summary-STP fold is the payload under test here.
  Runtime rt(RuntimeConfig{.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "frames"});
  auto server = std::make_unique<ChannelServer>(
      rt, std::vector<ServedChannel>{{.channel = &ch, .remote_producers = 1,
                                      .remote_consumers = 1}});
  server->start();
  const std::uint16_t port = server->port();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Healthy link: a put is queued and acked, and once a consumer's
  // summary-STP has been folded into the channel, the coalesced ack carries
  // it back as a known summary.
  auto res = proxy.put(make_item(rt, 0), stop.get_token());
  EXPECT_TRUE(res.stored);
  EXPECT_FALSE(res.dropped);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));

  auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                              stop.get_token());
  ASSERT_NE(got.item, nullptr);
  EXPECT_EQ(got.item->ts(), 0);

  res = proxy.put(make_item(rt, 1), stop.get_token());
  EXPECT_TRUE(res.stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  const Nanos held = proxy.summary();
  ASSERT_TRUE(aru::known(held));

  // Outage: the server dies. Puts must fail fast as local drops — never
  // block — and keep returning the held summary-STP so the source's pacing
  // holds its period instead of free-running. The first put may still be
  // queued for replay before the dead link is noticed; every later one is
  // a drop.
  server->stop();
  server.reset();

  const std::int64_t drops_before = proxy.drops();
  for (Timestamp ts = 2; ts < 8; ++ts) {
    res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_EQ(res.summary, held) << "held summary-STP must survive the outage";
    if (ts > 2) {
      EXPECT_FALSE(res.stored) << "put " << ts;
      EXPECT_TRUE(res.dropped) << "put " << ts;
    }
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(proxy.drops() - drops_before, 5);
  // Note: connected() may still report true here — the idle get link only
  // observes the outage at its next RPC (the transport is caller-driven,
  // with no background liveness thread). The put link's state is what the
  // drops above assert.

  // Recovery: a fresh server binds the same port; puts must start storing
  // again within the (bounded) backoff schedule.
  auto server2 = std::make_unique<ChannelServer>(
      rt, std::vector<ServedChannel>{{.channel = &ch, .remote_producers = 1,
                                      .remote_consumers = 1}},
      ServerConfig{.port = port});
  server2->start();

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    res = proxy.put(make_item(rt, ts++), stop.get_token());
    if (res.stored) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  EXPECT_TRUE(resumed) << "puts never resumed after the server came back";
  EXPECT_GE(proxy.reconnects(), 1);

  server2->stop();
  rt.stop();

  // The trace must tell the whole story.
  const stats::Trace trace = rt.take_trace();
  const auto drops = events_of(trace, stats::EventType::kDrop, proxy.id());
  ASSERT_GE(drops.size(), 5u);
  for (const auto& e : drops) EXPECT_EQ(e.a, 1) << "link-down drops are tagged a=1";

  const auto reconnects = events_of(trace, stats::EventType::kReconnect);
  ASSERT_GE(reconnects.size(), 1u);
  for (const auto& e : reconnects) {
    EXPECT_GE(e.a, 1) << "reconnect must report >=1 failed attempt";
    EXPECT_GE(e.b, 0);
    EXPECT_LE(e.b, kBackoffMax.count()) << "backoff must stay bounded";
  }

  EXPECT_FALSE(events_of(trace, stats::EventType::kNetTx).empty());
  EXPECT_FALSE(events_of(trace, stats::EventType::kNetRx).empty());
}

TEST(NetReconnect, ServerSideTelemetryCountsReattachAndTracksSummaryStp) {
  Runtime rt(RuntimeConfig{.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, std::vector<ServedChannel>{{.channel = &ch,
                                                       .remote_producers = 1,
                                                       .remote_consumers = 1}});
  server.start();

  // Fetching with the same (name, labels) yields the series the server
  // registered at construction.
  const telemetry::Registry::Labels labels = {{"server", "frames"}};
  const telemetry::Counter& connections = rt.metrics().counter(
      "aru_net_server_connections_total", "", labels);
  const telemetry::Counter& reconnects =
      rt.metrics().counter("aru_net_reconnects_total", "", labels);
  const telemetry::Gauge& producer_stp = rt.metrics().gauge(
      "aru_task_summary_stp_ns", "", {{"task", "frames:remote_producer0"}});

  // The server increments on its connection threads; an RPC round-trip
  // means the increment was made, but reads here race the relaxed stores,
  // so assertions on freshly-bumped counters poll up to a deadline.
  auto reaches = [&](const telemetry::Counter& c, std::uint64_t want) {
    const Nanos deadline = rt.clock().now() + seconds(5);
    while (c.value() < want && rt.clock().now() < deadline) {
      rt.clock().sleep_for(millis(1));
    }
    return c.value() >= want;
  };

  std::stop_source stop;
  {
    RemoteChannel proxy(rt, {.name = "frames",
                             .transport = fast_transport(server.port()),
                             .producer_key = 0,
                             .consumer_key = 0});
    EXPECT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
    // The server sets the gauge as it sends the ack, so drain first.
    ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
    // No consumer summary folded yet: the per-producer gauge holds the
    // 0 = unknown sentinel.
    EXPECT_EQ(producer_stp.value(), 0);
    // Fold a consumer summary, then put again so the ack (and the gauge)
    // carry a known summary-STP back to this producer slot.
    auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                                stop.get_token());
    ASSERT_NE(got.item, nullptr);
    EXPECT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);
    ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
    EXPECT_GT(producer_stp.value(), 0);
    // First bind of each slot (one put link, one get link): connections,
    // not recoveries.
    EXPECT_TRUE(reaches(connections, 2));
    EXPECT_EQ(reconnects.value(), 0u);
  }

  // A fresh proxy claiming the same producer slot is the server-side view
  // of a link recovery: the slot was bound once already.
  {
    RemoteChannel proxy2(rt, {.name = "frames",
                              .transport = fast_transport(server.port()),
                              .producer_key = 0});
    EXPECT_TRUE(proxy2.put(make_item(rt, 2), stop.get_token()).stored);
    EXPECT_TRUE(proxy2.drain_puts(stop.get_token()));
    EXPECT_TRUE(reaches(connections, 3));
    EXPECT_TRUE(reaches(reconnects, 1));
  }

  server.stop();
  rt.stop();
}

TEST(NetReconnect, BackoffIsBoundedUnderPersistentOutage) {
  // No server at all: every put must fail fast (bounded by io/connect
  // timeouts, not hanging), and the proxy stays in the dropped state.
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(1),  // reserved port: refused
                           .producer_key = 0});
  std::stop_source stop;

  const Nanos t0 = rt.clock().now();
  for (Timestamp ts = 0; ts < 5; ++ts) {
    const auto res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_TRUE(res.dropped);
    EXPECT_FALSE(aru::known(res.summary)) << "no summary was ever received";
  }
  // 5 failed puts must complete well within a few connect timeouts: the
  // backoff gate means most attempts don't even touch the socket.
  EXPECT_LT((rt.clock().now() - t0).count(), seconds(5).count());
  EXPECT_EQ(proxy.reconnects(), 0);
  EXPECT_GE(proxy.drops(), 5);
}

TEST(NetReconnect, ClosedChannelPropagatesToRemoteProducerAndConsumer) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  ch.close();

  // The producer learns of the close from the next ack: the put that
  // elicits it is queued (and refused by the server), every put after it
  // reports the close without queuing.
  EXPECT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  const auto res = proxy.put(make_item(rt, 2), stop.get_token());
  EXPECT_FALSE(res.stored);
  EXPECT_FALSE(res.dropped) << "a closed channel is not a link failure";
  EXPECT_TRUE(res.closed);
  EXPECT_EQ(proxy.drops(), 0);

  // The consumer drains what is buffered, then sees the close.
  auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  EXPECT_EQ(got.item, nullptr);

  server.stop();
}

TEST(NetReconnect, ClosedRemoteChannelStopsWriterTask) {
  // A task writing to a RemoteChannel must learn of a server-side close()
  // and finish: its put returns unstored and undropped, so TaskContext::put
  // reports false and the body returns kDone. On the window path the
  // close arrives on a coalesced ack, and every later put must report it
  // instead of queuing.
  Runtime back;
  Channel& ch = back.add_channel({.name = "frames"});
  ChannelServer server(back, {{.channel = &ch, .remote_producers = 1,
                               .remote_consumers = 1}});
  server.start();

  // Declared before the runtime so they outlive its task threads.
  std::atomic<int> puts{0};
  std::atomic<bool> done{false};
  Runtime front;
  RemoteChannel proxy(front, {.name = "frames",
                              .transport = fast_transport(server.port()),
                              .producer_key = 0});
  TaskContext& writer = front.add_task({.name = "writer", .body = [&](TaskContext& t) {
                                          const Timestamp ts = puts.fetch_add(1);
                                          if (!t.put(0, t.make_item(ts, 128, {}))) {
                                            done.store(true);
                                            return TaskStatus::kDone;
                                          }
                                          t.clock().sleep_for(millis(2));
                                          return TaskStatus::kContinue;
                                        }});
  front.connect(writer, proxy);
  front.start();

  const Nanos up_deadline = back.clock().now() + seconds(5);
  while ((ch.size() < 3 || !proxy.connected()) && back.clock().now() < up_deadline) {
    back.clock().sleep_for(millis(2));
  }
  ASSERT_GE(ch.size(), 3u) << "the writer never reached the served channel";

  ch.close();
  const int puts_at_close = puts.load();
  const Nanos deadline = back.clock().now() + seconds(2);
  while (!done.load() && back.clock().now() < deadline) {
    back.clock().sleep_for(millis(2));
  }
  const int puts_after_close = puts.load() - puts_at_close;
  front.stop();
  server.stop();

  EXPECT_TRUE(done.load()) << "the writer kept producing into a closed remote channel ("
                           << puts_after_close << " puts after close)";
  EXPECT_EQ(proxy.drops(), 0) << "a closed channel is not a link failure";
}

TEST(NetReconnect, HelloRejectsUnknownChannelAndBadSlots) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1}});
  server.start();
  std::stop_source stop;

  // Unknown channel name: the transport treats the rejection as a dead
  // link, so the put degrades to a local drop instead of wedging.
  RemoteChannel wrong_name(rt, {.name = "nope",
                                .transport = fast_transport(server.port()),
                                .producer_key = 0});
  EXPECT_TRUE(wrong_name.put(make_item(rt, 0), stop.get_token()).dropped);

  // Out-of-range producer slot.
  RemoteChannel bad_slot(rt, {.name = "frames",
                              .transport = fast_transport(server.port()),
                              .producer_key = 7});
  EXPECT_TRUE(bad_slot.put(make_item(rt, 0), stop.get_token()).dropped);

  server.stop();
}

TEST(NetReconnect, StopTokenUnparksGetAgainstIdleServer) {
  // A live-but-idle server heartbeats forever, and every heartbeat resets
  // the client's per-frame io_timeout — so only the in-RPC stop check lets
  // a parked get_latest observe shutdown. On regression this test hangs
  // (caught by the CI test timeout) rather than failing an assertion.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .consumer_key = 0});
  std::stop_source stop;

  RemoteEndpoint::GetResult res;
  std::thread consumer([&] {
    res = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  });
  rt.clock().sleep_for(millis(300));  // park through several heartbeats
  stop.request_stop();
  consumer.join();
  EXPECT_EQ(res.item, nullptr);
  EXPECT_GE(res.blocked.count(), millis(200).count())
      << "the get must actually have parked before stop fired";
  server.stop();
}

TEST(NetReconnect, BackpressuredPutHeartbeatsThroughTheWait) {
  // A put parked on a full bounded channel must not silence the link: the
  // server polls try_put and keeps heartbeating while it waits, so the
  // client rides out a wait far longer than io_timeout instead of timing
  // out into a spurious drop + reconnect for an item the server stores.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames", .capacity = 2});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));

  RemoteEndpoint::PutResult res;
  bool drained = false;
  std::thread producer([&] {
    res = proxy.put(make_item(rt, 2), stop.get_token());
    drained = proxy.drain_puts(stop.get_token());
  });
  // Hold the channel full for well over io_timeout (500ms) before freeing
  // a slot: only server heartbeats can keep the drain's ack wait alive
  // that long.
  rt.clock().sleep_for(millis(1200));
  auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);  // consumes ts=1; collecting ts=0 frees a slot
  producer.join();

  EXPECT_TRUE(res.stored);
  EXPECT_FALSE(res.dropped);
  EXPECT_TRUE(drained) << "the held put must be stored and acked, not timed out";
  EXPECT_EQ(proxy.drops(), 0);
  EXPECT_EQ(proxy.reconnects(), 0);
  server.stop();
}

TEST(NetReconnect, OverlongChannelNameIsRejectedAtConstruction) {
  // A name over kMaxNameBytes would encode into a Hello every peer rejects
  // as malformed — a connect loop with no diagnostic. Both endpoints
  // refuse to be built with one instead.
  Runtime rt;
  const std::string long_name(kMaxNameBytes + 1, 'n');
  EXPECT_THROW((RemoteChannel(rt, {.name = long_name, .producer_key = 0})),
               std::invalid_argument);
  Channel& ch = rt.add_channel({.name = long_name});
  EXPECT_THROW((ChannelServer(rt, {{.channel = &ch, .remote_producers = 1}})),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pipelined window (wire v3): async puts, coalesced acks, dup suppression
// ---------------------------------------------------------------------------

TEST(PipelinedReconnect, WindowedPutsDeliverEverythingOnDrain) {
  Runtime rt(RuntimeConfig{.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // A burst far larger than the 64-put window: puts return as soon as they
  // are queued, acks settle them in coalesced batches, and drain_puts
  // blocks until the whole tail is acked. Nothing may be lost on a healthy
  // link.
  constexpr Timestamp kCount = 200;
  for (Timestamp ts = 0; ts < kCount; ++ts) {
    const auto res = proxy.put(make_item(rt, ts), stop.get_token());
    EXPECT_TRUE(res.stored);
    EXPECT_FALSE(res.dropped);
  }
  EXPECT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_EQ(ch.size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(proxy.drops(), 0);

  // The summary-STP feedback still rides the (now coalesced) acks: fold a
  // consumer summary, then put+drain until the proxy has seen it back.
  auto got = proxy.get_latest(/*consumer_summary=*/millis(7), kNoTimestamp,
                              stop.get_token());
  ASSERT_NE(got.item, nullptr);
  const Nanos deadline = rt.clock().now() + seconds(5);
  Timestamp ts = kCount;
  while (!aru::known(proxy.summary()) && rt.clock().now() < deadline) {
    proxy.put(make_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
  }
  EXPECT_TRUE(aru::known(proxy.summary()))
      << "coalesced acks must carry the summary-STP back to the producer";

  server.stop();
  rt.stop();

  // Batching and coalescing must be visible in the trace: the client
  // records one kNetTx per *flush* (not per put) and one kNetRx per
  // coalesced ack — both must come in well under one-per-put.
  const stats::Trace trace = rt.take_trace();
  std::size_t put_flush_tx = 0;
  std::size_t ack_rx = 0;
  for (const auto& e : events_of(trace, stats::EventType::kNetTx, proxy.id())) {
    if (e.b == static_cast<std::int64_t>(MsgType::kPut)) ++put_flush_tx;
  }
  for (const auto& e : events_of(trace, stats::EventType::kNetRx, proxy.id())) {
    if (e.b == static_cast<std::int64_t>(MsgType::kPutAck)) ++ack_rx;
  }
  EXPECT_GE(put_flush_tx, 1u);
  EXPECT_LT(put_flush_tx, static_cast<std::size_t>(kCount))
      << "puts must batch into scatter/gather flushes, not one send per put";
  EXPECT_GE(ack_rx, 1u);
  EXPECT_LT(ack_rx, static_cast<std::size_t>(kCount))
      << "acks must be coalesced, not one per put";
}

TEST(PipelinedReconnect, SmallPutOnAnIdleLinkLeavesAtOnce) {
  // A 1 KiB put is small enough to be staged for batching, but with no
  // put in flight before it, it must leave at once (Nagle): a get sent
  // right behind it on another proxy's link sees it well inside
  // io_timeout, with no drain_puts in between.
  Runtime rt(RuntimeConfig{.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "records"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();
  const TransportConfig transport = fast_transport(server.port());
  RemoteChannel writer(rt, {.name = "records", .transport = transport, .producer_key = 0});
  RemoteChannel reader(rt, {.name = "records", .transport = transport, .consumer_key = 0});

  // A watchdog stop, so a put that stays staged fails the test instead of
  // parking the get forever.
  std::stop_source stop;
  std::jthread watchdog([&](std::stop_token done) {
    const Nanos deadline = rt.clock().now() + seconds(5);
    while (!done.stop_requested() && rt.clock().now() < deadline) {
      rt.clock().sleep_for(millis(10));
    }
    stop.request_stop();
  });

  for (Timestamp ts = 0; ts < 3; ++ts) {
    const Nanos t0 = rt.clock().now();
    const auto put = writer.put(make_item(rt, ts, 1024), stop.get_token());
    EXPECT_TRUE(put.stored);
    const auto got = reader.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
    const Nanos took = rt.clock().now() - t0;
    ASSERT_NE(got.item, nullptr) << "put " << ts << " stayed staged";
    EXPECT_EQ(got.item->ts(), ts);
    EXPECT_LT(took, transport.io_timeout / 2) << "put " << ts;
    // Let the ack come back, so the next put again finds the link idle.
    rt.clock().sleep_for(millis(20));
  }
  watchdog.request_stop();
  server.stop();
}

TEST(PipelinedReconnect, BackpressureThrottlesTheWindowWithoutLoss) {
  // A bounded channel with no consumer caps the advertised credits; the
  // producer's effective window shrinks to the channel's slack and the
  // excess puts ride the server's try_put poll. Everything is eventually
  // stored exactly once once a consumer drains.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames", .capacity = 4});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  bool drained = false;
  std::thread producer([&] {
    for (Timestamp ts = 0; ts < 12; ++ts) {
      proxy.put(make_item(rt, ts), stop.get_token());
    }
    drained = proxy.drain_puts(stop.get_token());
  });

  // Drain from the other side so the windowed producer can finish. Each
  // fetched timestamp must be strictly newer than the last — duplicates
  // or reordering across the backpressured window would show up here.
  // The consumer runs on its own stop token: a get against a drained
  // channel parks server-side, so the final get is unparked by the stop
  // request once the producer is done.
  std::stop_source consumer_stop;
  std::atomic<int> fetched{0};
  std::thread consumer([&] {
    Timestamp last_ts = -1;
    while (!consumer_stop.stop_requested()) {
      auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp,
                                  consumer_stop.get_token());
      if (got.item == nullptr) break;  // stop requested mid-park
      EXPECT_GT(got.item->ts(), last_ts) << "duplicate or reordered timestamp";
      last_ts = got.item->ts();
      fetched.fetch_add(1, std::memory_order_relaxed);
      rt.clock().sleep_for(millis(2));
    }
  });

  producer.join();
  consumer_stop.request_stop();
  consumer.join();

  EXPECT_TRUE(drained);
  EXPECT_GE(fetched.load(), 1);
  EXPECT_EQ(proxy.drops(), 0) << "backpressure must throttle, not drop";
  server.stop();
}

// -- raw wire tier: dup suppression needs frame-level control ---------------

FrameBuf raw_put_frame(std::uint64_t seq, Timestamp ts) {
  PutMsg m{.seq = seq};
  m.item.ts = ts;
  m.item.payload_bytes = 0;
  return encode(m);
}

bool raw_read_frame(TcpStream& s, FrameHeader& h, std::vector<std::byte>& body) {
  std::array<std::byte, kHeaderBytes> hdr;
  if (s.recv_exact(hdr, seconds(2)) != IoStatus::kOk) return false;
  if (!decode_header(hdr, h, nullptr)) return false;
  body.resize(h.body_len);
  return h.body_len == 0 || s.recv_exact(body, seconds(2)) == IoStatus::kOk;
}

/// Reads frames (skipping heartbeats) until a PutAck with cum_seq >= want.
bool raw_await_cum_ack(TcpStream& s, std::uint64_t want) {
  FrameHeader h;
  std::vector<std::byte> body;
  PutAckMsg ack;
  for (int i = 0; i < 64; ++i) {
    if (!raw_read_frame(s, h, body)) return false;
    if (h.type == MsgType::kHeartbeat) continue;
    if (h.type != MsgType::kPutAck) return false;
    if (!decode(std::span<const std::byte>(body), ack, nullptr)) return false;
    if (ack.cum_seq >= want) return true;
  }
  return false;
}

/// Sends `hello` on a fresh connection and returns it once the HelloAck
/// says ok (copied to `*ack_out` when non-null).
std::optional<TcpStream> raw_hello(std::uint16_t port, const HelloMsg& hello,
                                   HelloAckMsg* ack_out = nullptr) {
  auto stream = TcpStream::connect("127.0.0.1", port, seconds(2));
  if (!stream) return std::nullopt;
  if (stream->send_all(encode(hello).span(), seconds(2)) != IoStatus::kOk) {
    return std::nullopt;
  }
  FrameHeader h;
  std::vector<std::byte> body;
  HelloAckMsg ack;
  if (!raw_read_frame(*stream, h, body) || h.type != MsgType::kHelloAck ||
      !decode(std::span<const std::byte>(body), ack, nullptr) || !ack.ok) {
    return std::nullopt;
  }
  if (ack_out != nullptr) *ack_out = ack;
  return stream;
}

std::optional<TcpStream> raw_attach(std::uint16_t port, std::uint64_t session,
                                    std::uint64_t start_seq) {
  return raw_hello(port, HelloMsg{.channel = "frames",
                                  .producer_key = 0,
                                  .session = session,
                                  .start_seq = start_seq});
}

TEST(ChannelServer, HelloMustClaimExactlyOneSlot) {
  // A proxy opens one link per direction, so a Hello claims a producer
  // slot or a consumer slot. One claiming both, or neither, is refused
  // before the link attaches: no connection is counted and the server
  // hangs up instead of holding a thread that could only heartbeat.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1, .remote_consumers = 1}});
  server.start();
  const telemetry::Counter& connections = rt.metrics().counter(
      "aru_net_server_connections_total", "", {{"server", "frames"}});

  for (const HelloMsg& hello :
       {HelloMsg{.channel = "frames", .producer_key = 0, .consumer_key = 0, .session = 1},
        HelloMsg{.channel = "frames", .session = 2}}) {
    auto s = TcpStream::connect("127.0.0.1", server.port(), seconds(2));
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->send_all(encode(hello).span(), seconds(2)), IoStatus::kOk);
    FrameHeader h;
    std::vector<std::byte> body;
    HelloAckMsg ack;
    ASSERT_TRUE(raw_read_frame(*s, h, body));
    ASSERT_EQ(h.type, MsgType::kHelloAck);
    ASSERT_TRUE(decode(std::span<const std::byte>(body), ack, nullptr));
    EXPECT_FALSE(ack.ok) << "producer_key " << hello.producer_key << ", consumer_key "
                         << hello.consumer_key;
    std::array<std::byte, 1> more;
    EXPECT_EQ(s->recv_exact(more, seconds(2)), IoStatus::kClosed);
  }
  EXPECT_EQ(connections.value(), 0u);

  // A proxy that claims one slot per link is still served.
  std::stop_source stop;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(server.port()),
                           .producer_key = 0,
                           .consumer_key = 0});
  EXPECT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  const auto got = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  EXPECT_EQ(got.item->ts(), 0);
  EXPECT_EQ(connections.value(), 2u);

  server.stop();
  rt.stop();
}

TEST(PipelinedReconnect, ReplayedWindowTailIsNotDuplicated) {
  // The client-side window resends its unacked tail after every reconnect;
  // when the loss was only the *ack* (the server had stored the items),
  // the per-(slot, session) watermark must swallow the replay. Speaking
  // raw wire v3 lets the test control exactly which acks "got lost".
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  // The consumer slot matters: a channel nobody will ever read retains
  // nothing, and this test counts retained items.
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  constexpr std::uint64_t kSession = 0xABCD1234;
  {
    auto s = raw_attach(server.port(), kSession, 1);
    ASSERT_TRUE(s.has_value());
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_EQ(s->send_all(raw_put_frame(seq, static_cast<Timestamp>(seq)).span(),
                            seconds(2)),
                IoStatus::kOk);
    }
    ASSERT_TRUE(raw_await_cum_ack(*s, 3));
    EXPECT_EQ(ch.size(), 3u);
  }  // drop the connection: pretend the acks for 2..3 never arrived

  {
    // Same session reattaches claiming start_seq=2 and replays 2..3: both
    // are at or below the surviving watermark, so the channel must not
    // grow — but the cumulative ack still settles them for the client.
    auto s = raw_attach(server.port(), kSession, 2);
    ASSERT_TRUE(s.has_value());
    for (std::uint64_t seq = 2; seq <= 3; ++seq) {
      ASSERT_EQ(s->send_all(raw_put_frame(seq, static_cast<Timestamp>(seq)).span(),
                            seconds(2)),
                IoStatus::kOk);
    }
    ASSERT_TRUE(raw_await_cum_ack(*s, 3));
    EXPECT_EQ(ch.size(), 3u) << "replayed puts must be suppressed, not re-stored";
  }

  {
    // A *new* session on the same slot resets the watermark: its seq=1 is
    // a genuinely new item, not a replay.
    auto s = raw_attach(server.port(), 0x5EEDF00D, 1);
    ASSERT_TRUE(s.has_value());
    ASSERT_EQ(s->send_all(raw_put_frame(1, 100).span(), seconds(2)), IoStatus::kOk);
    ASSERT_TRUE(raw_await_cum_ack(*s, 1));
    EXPECT_EQ(ch.size(), 4u);
  }

  server.stop();
}

TEST(PipelinedReconnect, UnsequencedPutDropsTheConnection) {
  // Sequences start at 1; seq 0 has no sender, so a put carrying it is a
  // protocol violation: the server hangs up without storing or acking it.
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}});
  server.start();

  auto s = raw_attach(server.port(), 0xC0FFEE, 1);
  ASSERT_TRUE(s.has_value());
  ASSERT_EQ(s->send_all(raw_put_frame(0, 1).span(), seconds(2)), IoStatus::kOk);

  // Heartbeats may precede the hang-up; a PutAck never may.
  FrameHeader h;
  std::vector<std::byte> body;
  bool hung_up = false;
  for (int i = 0; i < 64; ++i) {
    if (!raw_read_frame(*s, h, body)) {
      hung_up = true;
      break;
    }
    ASSERT_EQ(h.type, MsgType::kHeartbeat) << "an unsequenced put must not be acked";
  }
  EXPECT_TRUE(hung_up) << "the server must drop the connection";
  EXPECT_EQ(ch.size(), 0u) << "an unsequenced put must not be stored";

  server.stop();
}

// -- same-host arena handoff (wire v5) against a hostile peer ---------------

constexpr std::size_t kArenaPayload = std::size_t{64} << 10;

/// True once the server has hung up: heartbeats may come first, never
/// anything else (no ack, no reply).
bool raw_hung_up(TcpStream& s) {
  FrameHeader h;
  std::vector<std::byte> body;
  for (int i = 0; i < 64; ++i) {
    if (!raw_read_frame(s, h, body)) return true;
    if (h.type != MsgType::kHeartbeat) return false;
  }
  return false;
}

/// A put frame whose item names `offset` of arena `token`.
FrameBuf raw_arena_put(std::uint64_t seq, std::uint64_t offset, std::uint32_t bytes,
                       std::uint64_t token) {
  PutMsg m{.seq = seq};
  m.item.ts = static_cast<Timestamp>(seq);
  m.item.payload_bytes = bytes;
  m.item.arena_offset = offset;
  m.item.arena_token = token;
  return encode(m);
}

/// A producer Hello for "frames" offering `arena`.
HelloMsg producer_hello(const ArenaRef& arena) {
  return {.channel = "frames", .producer_key = 0, .session = 0xA4E7A, .start_seq = 1,
          .arena = arena};
}

/// A served "frames" channel with one remote producer and one consumer.
struct ArenaServer {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server{rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}}};
  ArenaServer() { server.start(); }
  ~ArenaServer() { server.stop(); }
};

TEST(ArenaHandoff, OnlyDescriptorsInsideAMappedArenaAreStored) {
  // Puts that break the rules drop the connection and leave the channel
  // empty; a valid one is stored as a view of the producer's slab.
  ArenaServer srv;
  PayloadPool pool(/*poison=*/false);
  pool.enable_arena();
  ASSERT_GE(pool.arena().fd, 0) << "memfd arenas unavailable";
  const std::uint64_t size = pool.arena().size;
  const std::uint64_t token = pool.arena().token;

  // Past the arena's end: the offset alone, the length, and wrap-around.
  const std::pair<std::uint64_t, std::uint32_t> out_of_range[] = {
      {size, 1}, {size - 100, 4096}, {~std::uint64_t{0} - 10, 4096}};
  for (const auto& [offset, bytes] : out_of_range) {
    HelloAckMsg ack;
    auto s = raw_hello(srv.server.port(), producer_hello(local_arena(pool)), &ack);
    ASSERT_TRUE(s.has_value());
    ASSERT_TRUE(ack.peer_mapped);
    ASSERT_EQ(s->send_all(raw_arena_put(1, offset, bytes, token).span(), seconds(2)),
              IoStatus::kOk);
    EXPECT_TRUE(raw_hung_up(*s)) << "offset " << offset << " + " << bytes;
  }

  // A descriptor that also carries a payload tail.
  {
    HelloAckMsg ack;
    auto s = raw_hello(srv.server.port(), producer_hello(local_arena(pool)), &ack);
    ASSERT_TRUE(s.has_value());
    FrameBuf frame = raw_arena_put(1, 0, 16, token);
    const std::uint32_t tail = 16;
    std::memcpy(frame.data.data() + 12, &tail, sizeof(tail));  // header payload_len
    const std::array<std::byte, 16> bytes{};
    // One send: a Unix link refuses a second one (EPIPE) once the server
    // has dropped it after reading the frame.
    const std::array<std::span<const std::byte>, 2> both = {frame.span(), bytes};
    ASSERT_EQ(s->send_vec(both, seconds(2)), IoStatus::kOk);
    EXPECT_TRUE(raw_hung_up(*s)) << "a descriptor with a tail must drop the link";
  }

  // A descriptor naming another arena than the one the server mapped.
  {
    HelloAckMsg ack;
    auto s = raw_hello(srv.server.port(), producer_hello(local_arena(pool)), &ack);
    ASSERT_TRUE(s.has_value());
    ASSERT_TRUE(ack.peer_mapped);
    ASSERT_EQ(s->send_all(raw_arena_put(1, 0, 16, token ^ 1).span(), seconds(2)),
              IoStatus::kOk);
    EXPECT_TRUE(raw_hung_up(*s)) << "a descriptor of an unmapped arena must drop the link";
  }

  // A descriptor on a link whose Hello offered no arena.
  {
    HelloAckMsg ack;
    auto s = raw_hello(srv.server.port(), producer_hello(ArenaRef{}), &ack);
    ASSERT_TRUE(s.has_value());
    EXPECT_FALSE(ack.peer_mapped);
    ASSERT_EQ(s->send_all(raw_arena_put(1, 0, 16, token).span(), seconds(2)),
              IoStatus::kOk);
    EXPECT_TRUE(raw_hung_up(*s)) << "no mapping: a descriptor must drop the link";
  }
  EXPECT_EQ(srv.ch.size(), 0u) << "nothing from outside the arena may be stored";

  // The server survived all of it, and a valid descriptor is stored as a
  // view of the producer's slab, byte for byte, charged to nobody here.
  PayloadBuffer slab = pool.acquire(kArenaPayload);
  for (std::size_t i = 0; i < slab.size(); ++i) slab.span()[i] = std::byte(i * 7 + 1);
  const std::uint64_t offset = pool.arena_offset(slab.span().data());
  ASSERT_NE(offset, PayloadPool::kNotInArena);
  HelloAckMsg ack;
  auto s = raw_hello(srv.server.port(), producer_hello(local_arena(pool)), &ack);
  ASSERT_TRUE(s.has_value());
  ASSERT_TRUE(ack.peer_mapped);
  ASSERT_EQ(s->send_all(raw_arena_put(1, offset, kArenaPayload, token).span(), seconds(2)),
            IoStatus::kOk);
  ASSERT_TRUE(raw_await_cum_ack(*s, 1));
  ASSERT_EQ(srv.ch.size(), 1u);
  auto got = srv.ch.get_latest(0, aru::kUnknownStp, kNoTimestamp, {});
  ASSERT_NE(got.item, nullptr);
  ASSERT_EQ(got.item->bytes(), kArenaPayload);
  EXPECT_EQ(got.item->charged_bytes(), 0u) << "a lent put is charged to its lender only";
  EXPECT_EQ(srv.rt.memory().total_bytes(), 0);
  EXPECT_TRUE(std::equal(slab.span().begin(), slab.span().end(), got.item->data().begin()))
      << "the stored payload must be the producer's bytes";
}

TEST(ArenaHandoff, HelloWithABadArenaFallsBackToTheTail) {
  ArenaServer srv;
  PayloadPool pool(/*poison=*/false);
  pool.enable_arena();
  const ArenaRef good = local_arena(pool);
  ASSERT_NE(good.token, 0u) << "memfd arenas unavailable";

  // A memfd with the right name shape but no seals: the peer could shrink
  // it under our reads.
  char name[32];
  std::snprintf(name, sizeof(name), "aru-arena-%016llx", 0x5EA1ED0FFULL);
  const int unsealed = ::memfd_create(name, MFD_CLOEXEC);
  ASSERT_GE(unsealed, 0);
  ASSERT_EQ(::ftruncate(unsealed, 1 << 20), 0);
  // Not a memfd at all: a FIFO with no writer, whose blocking open would
  // never return.
  const std::string fifo = testing::TempDir() + "/arena_fifo_" + std::to_string(::getpid());
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const int fifo_fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  ASSERT_GE(fifo_fd, 0);

  ArenaRef wrong_token = good;
  wrong_token.token ^= 1;
  const ArenaRef unsealed_ref{.pid = good.pid, .fd = unsealed, .token = 0x5EA1ED0FFULL,
                              .size = 1 << 20};
  ArenaRef not_memfd = good;
  not_memfd.fd = fifo_fd;
  ArenaRef oversized = good;
  oversized.size = good.size + 4096;
  ArenaRef other_pid = good;
  other_pid.pid = 1;

  std::uint64_t seq = 0;
  for (const ArenaRef& bad : {wrong_token, unsealed_ref, not_memfd, oversized, other_pid}) {
    HelloAckMsg ack;
    auto s = raw_hello(srv.server.port(), producer_hello(bad), &ack);
    ASSERT_TRUE(s.has_value()) << "a bad arena must not fail the attach";
    EXPECT_FALSE(ack.peer_mapped) << "fd " << bad.fd << " token " << bad.token;
    // Same session across attaches: each put is a new sequence number.
    ++seq;
    ASSERT_EQ(s->send_all(raw_put_frame(seq, static_cast<Timestamp>(seq)).span(),
                          seconds(2)),
              IoStatus::kOk);
    EXPECT_TRUE(raw_await_cum_ack(*s, seq)) << "the tail path must still work";
  }
  EXPECT_EQ(srv.ch.size(), seq);
  ::close(unsealed);
  ::close(fifo_fd);
  ::unlink(fifo.c_str());
}

TEST(ArenaHandoff, WindowTailIsReencodedForTheNewLink) {
  // The first server maps the producer's arena and takes three frame-sized
  // puts as arena offsets without acking them, then vanishes. Its
  // replacement on the same port does not map the arena, so the resent
  // window tail must carry the bytes as payload tails.
  constexpr std::size_t kPayload = std::size_t{720} << 10;
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  const std::uint16_t port = listener->port();
  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames", .transport = fast_transport(port),
                           .producer_key = 0});
  std::stop_source stop;

  // A fake server: acks the Hello (mapped or not), then hands each put
  // frame to `on_put` with its tail (empty when there is none).
  using OnPut = std::function<void(const FrameHeader&, const PutMsg&,
                                   const std::vector<std::byte>&)>;
  const auto serve = [](TcpListener& l, bool mapped, int puts, const OnPut& on_put) {
    auto s = l.accept(seconds(5));
    if (!s) return std::optional<TcpStream>{};
    FrameHeader h;
    std::vector<std::byte> body;
    if (!raw_read_frame(*s, h, body) || h.type != MsgType::kHello) return std::optional<TcpStream>{};
    const FrameBuf ack = encode(HelloAckMsg{.ok = true, .credits = 64, .peer_mapped = mapped});
    if (s->send_all(ack.span(), seconds(2)) != IoStatus::kOk) return std::optional<TcpStream>{};
    for (int i = 0; i < puts; ++i) {
      PutMsg put;
      std::vector<std::byte> tail;
      if (!raw_read_frame(*s, h, body) || h.type != MsgType::kPut ||
          !decode(std::span<const std::byte>(body), put, nullptr)) {
        return std::optional<TcpStream>{};
      }
      tail.resize(h.payload_len);
      if (!tail.empty() && s->recv_exact(tail, seconds(2)) != IoStatus::kOk) {
        return std::optional<TcpStream>{};
      }
      on_put(h, put, tail);
    }
    return std::optional<TcpStream>{std::move(*s)};
  };

  int arena_puts = 0;
  std::thread first([&] {
    auto s = serve(*listener, /*mapped=*/true, 3,
                   [&](const FrameHeader& h, const PutMsg& put, const std::vector<std::byte>&) {
                     if (h.payload_len == 0 && put.item.arena_offset != kNoArenaOffset) {
                       ++arena_puts;
                     }
                   });
    listener->close();  // and `s` hangs up on return: no ack ever came
  });
  for (Timestamp ts = 0; ts < 3; ++ts) {
    auto item = make_item(rt, ts, kPayload);
    std::memset(item->mutable_data().data(), static_cast<int>(ts + 1), kPayload);
    ASSERT_TRUE(proxy.put(std::move(item), stop.get_token()).stored);
  }
  first.join();
  EXPECT_EQ(arena_puts, 3) << "a mapping server takes frame puts as arena offsets";

  auto listener2 = TcpListener::listen(port);
  ASSERT_TRUE(listener2.has_value());
  int tail_puts = 0;
  std::atomic<bool> drained{false};
  std::thread second([&] {
    auto s = serve(*listener2, /*mapped=*/false, 3,
                   [&](const FrameHeader& h, const PutMsg& put,
                       const std::vector<std::byte>& tail) {
                     const auto fill = std::byte(static_cast<unsigned>(put.item.ts + 1));
                     if (put.item.arena_offset == kNoArenaOffset && h.payload_len == kPayload &&
                         std::all_of(tail.begin(), tail.end(),
                                     [&](std::byte b) { return b == fill; })) {
                       ++tail_puts;
                     }
                   });
    if (s) {
      (void)s->send_all(encode(PutAckMsg{.cum_seq = 3, .credits = 64}).span(), seconds(2));
      // Stay up until the client has read the ack.
      const Nanos until = rt.clock().now() + seconds(5);
      while (!drained.load() && rt.clock().now() < until) rt.clock().sleep_for(millis(1));
    }
  });
  EXPECT_TRUE(proxy.drain_puts(stop.get_token())) << "the resent tail was never acked";
  drained = true;
  second.join();
  EXPECT_EQ(tail_puts, 3) << "the resent tail must carry the bytes for an unmapped link";
}

// ---------------------------------------------------------------------------
// Two-process tier: SIGKILL a real spd_node child mid-stream
// ---------------------------------------------------------------------------

/// A spawned spd_node child whose stdout is scraped for the bound port.
struct SpdNodeProc {
  pid_t pid = -1;
  std::uint16_t port = 0;

  /// A channel server hosting "frames" with one remote producer and one
  /// remote consumer.
  static SpdNodeProc spawn(const std::vector<std::string>& extra_args) {
    std::vector<std::string> args = {"channels=frames:1:1", "seconds=60", "quiet=true"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    return spawn_with(args);
  }

  /// spd_node with `args`; its first stdout line is scraped for a port.
  static SpdNodeProc spawn_with(const std::vector<std::string>& node_args) {
    SpdNodeProc proc;
    int pipefd[2] = {-1, -1};
    if (::pipe(pipefd) != 0) return proc;

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, pipefd[0]);
    posix_spawn_file_actions_addclose(&actions, pipefd[1]);

    std::vector<std::string> args = {SPD_NODE_PATH};
    args.insert(args.end(), node_args.begin(), node_args.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const int rc =
        ::posix_spawn(&proc.pid, SPD_NODE_PATH, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipefd[1]);
    if (rc != 0) {
      ::close(pipefd[0]);
      proc.pid = -1;
      return proc;
    }

    // Scrape "spd_node: listening on <port>" from the child's stdout.
    std::string line;
    char c = 0;
    while (line.find('\n') == std::string::npos && line.size() < 256) {
      const ssize_t n = ::read(pipefd[0], &c, 1);
      if (n <= 0) break;
      line.push_back(c);
    }
    ::close(pipefd[0]);
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "spd_node: listening on %u", &port) == 1) {
      proc.port = static_cast<std::uint16_t>(port);
    }
    return proc;
  }

  void kill_hard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      pid = -1;
    }
  }

  ~SpdNodeProc() { kill_hard(); }
};

/// A frame-sized item (the tracker's 738 kB frame lands in the 768 KiB
/// slab class) whose bytes are a pattern keyed by its timestamp.
constexpr std::size_t kFramePayload = std::size_t{720} << 10;

std::shared_ptr<Item> frame_item(Runtime& rt, Timestamp ts) {
  auto item = make_item(rt, ts, kFramePayload);
  const auto data = item->mutable_data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<unsigned>(i * 31 + static_cast<std::size_t>(ts)));
  }
  return item;
}

bool has_frame_pattern(const Item& item) {
  const auto data = item.data();
  if (data.size() != kFramePayload) return false;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != std::byte(static_cast<unsigned>(i * 31 +
                                                   static_cast<std::size_t>(item.ts())))) {
      return false;
    }
  }
  return true;
}

// -- lent get replies (wire v6) ----------------------------------------------

/// A raw consumer of slot 0 of an ArenaServer's "frames" that maps the
/// server's arena and says so in every Get, but keeps its own books: what
/// it releases, and when, is up to the test.
struct RawLessee {
  TcpStream s;
  std::shared_ptr<PeerArena> arena;

  static std::optional<RawLessee> attach(std::uint16_t port, std::uint64_t session) {
    HelloAckMsg ack;
    auto s = raw_hello(port, HelloMsg{.channel = "frames", .consumer_key = 0,
                                      .session = session},
                       &ack);
    if (!s) return std::nullopt;
    auto arena = PeerArena::map(ack.arena);
    if (arena == nullptr) return std::nullopt;
    return RawLessee{std::move(*s), std::move(arena)};
  }

  /// Returns `released` in a kRelease frame (when there are any), then
  /// sends a Get and reads the reply; a payload tail lands in `*tail`.
  /// False when the link died.
  bool get(GetReplyMsg& reply, std::vector<std::uint64_t> released = {},
           std::vector<std::byte>* tail = nullptr) {
    if (!released.empty() && !send(encode(ReleaseMsg{.released = std::move(released)}))) {
      return false;
    }
    return send(get_frame()) && read_reply(reply, tail);
  }

  /// A Get naming the server's arena, which this lessee mapped.
  FrameBuf get_frame() const { return encode(GetMsg{.arenas = {arena->ref().token}}); }

  bool send(const FrameBuf& frame) {
    return s.send_all(frame.span(), seconds(2)) == IoStatus::kOk;
  }

  /// Reads frames up to the next get reply (heartbeats are skipped).
  bool read_reply(GetReplyMsg& reply, std::vector<std::byte>* tail = nullptr) {
    FrameHeader h;
    std::vector<std::byte> body;
    do {
      if (!raw_read_frame(s, h, body)) return false;
    } while (h.type == MsgType::kHeartbeat);
    if (h.type != MsgType::kGetReply ||
        !decode(std::span<const std::byte>(body), reply, nullptr)) {
      return false;
    }
    std::vector<std::byte> bytes(h.payload_len);
    if (!bytes.empty() && s.recv_exact(bytes, seconds(2)) != IoStatus::kOk) return false;
    if (tail != nullptr) *tail = std::move(bytes);
    return true;
  }
};

/// A kRelease frame whose list claims kMaxLeases + 1 ids, all present.
FrameBuf overlong_release() {
  const auto forged = static_cast<std::uint16_t>(kMaxLeases + 1);
  std::vector<std::byte> body(2 + 8 * (kMaxLeases + 1), std::byte{0});
  std::memcpy(body.data(), &forged, sizeof(forged));
  FrameBuf over = encode(ReleaseMsg{});
  over.len = kHeaderBytes;
  const auto len = static_cast<std::uint32_t>(body.size());
  std::memcpy(over.data.data() + 4, &len, sizeof(len));
  std::memcpy(over.data.data() + over.len, body.data(), body.size());
  over.len += body.size();
  return over;
}

/// Puts a kArenaPayload item filled with `ts` into the server's channel.
std::weak_ptr<Item> put_arena_item(ArenaServer& srv, Timestamp ts) {
  auto item = std::make_shared<Item>(srv.rt.context(), ts, kArenaPayload, 100, 0,
                                     std::vector<ItemId>{}, Nanos{0});
  std::memset(item->mutable_data().data(), static_cast<int>(ts & 0xFF), kArenaPayload);
  std::weak_ptr<Item> weak = item;
  srv.ch.put(std::move(item), {});
  return weak;
}

/// Waits up to `timeout` for `done`; true once it holds.
bool await(Runtime& rt, const std::function<bool()>& done, Nanos timeout = seconds(5)) {
  const Nanos until = rt.clock().now() + timeout;
  while (!done() && rt.clock().now() < until) rt.clock().sleep_for(millis(1));
  return done();
}

std::int64_t leases_of(Runtime& rt) {
  return rt.metrics().gauge("aru_net_leases", "", {{"channel", "frames"}}).value();
}

TEST(ArenaHandoff, UnreleasedLeasesPinAtMostMaxLeasesPerSlot) {
  // A consumer that reads its replies in place and releases nothing: the
  // slot lends kMaxLeases replies, then the rest ride the tail; one
  // release makes room for one more lent reply.
  ArenaServer srv;
  auto c = RawLessee::attach(srv.server.port(), 0x1EA5E);
  ASSERT_TRUE(c.has_value()) << "a consumer must be offered the server's arena";

  std::vector<std::weak_ptr<Item>> lent;
  std::vector<std::uint64_t> leases;
  for (Timestamp ts = 0; ts < static_cast<Timestamp>(kMaxLeases) + 4; ++ts) {
    const auto item = put_arena_item(srv, ts);
    GetReplyMsg reply;
    std::vector<std::byte> tail;
    ASSERT_TRUE(c->get(reply, {}, &tail));
    ASSERT_TRUE(reply.has_item);
    EXPECT_EQ(reply.item.ts, ts);
    if (ts < static_cast<Timestamp>(kMaxLeases)) {
      ASSERT_NE(reply.lease, 0u) << "ts " << ts;
      ASSERT_NE(reply.item.arena_offset, kNoArenaOffset);
      EXPECT_TRUE(tail.empty()) << "a lent reply has no tail";
      EXPECT_EQ(reply.item.arena_token, c->arena->ref().token);
      const PayloadBuffer view =
          PeerArena::view(c->arena, reply.item.arena_offset, reply.item.payload_bytes, 0);
      ASSERT_TRUE(view.borrowed());
      EXPECT_EQ(view.span().front(), std::byte(ts));
      EXPECT_EQ(view.span().back(), std::byte(ts));
      lent.push_back(item);
      leases.push_back(reply.lease);
    } else {
      EXPECT_EQ(reply.lease, 0u) << "past the cap a reply must not be lent";
      EXPECT_EQ(reply.item.arena_offset, kNoArenaOffset);
      ASSERT_EQ(tail.size(), kArenaPayload) << "past the cap a reply rides the tail";
      EXPECT_EQ(tail.front(), std::byte(ts));
    }
  }
  std::vector<std::uint64_t> distinct = leases;
  std::ranges::sort(distinct);
  EXPECT_EQ(std::ranges::unique(distinct).begin(), distinct.end()) << "lease ids repeat";
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));
  for (const auto& w : lent) EXPECT_FALSE(w.expired()) << "a lent reply must stay pinned";

  // Releasing one lease unpins its item and restores borrowing.
  put_arena_item(srv, 100);
  GetReplyMsg reply;
  ASSERT_TRUE(c->get(reply, {leases.front()}));
  EXPECT_NE(reply.lease, 0u) << "a release must make room for a lent reply";
  EXPECT_NE(reply.item.arena_offset, kNoArenaOffset);
  EXPECT_TRUE(await(srv.rt, [&] { return lent.front().expired(); }));
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));

  // An idle consumer returns leases in a kRelease frame, between gets.
  ASSERT_EQ(c->s.send_all(encode(ReleaseMsg{.released = {leases[1], leases[2]}}).span(),
                          seconds(2)),
            IoStatus::kOk);
  EXPECT_TRUE(await(srv.rt, [&] { return lent[1].expired() && lent[2].expired(); }))
      << "a release frame must unpin its items";
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases) - 2);
}

TEST(ArenaHandoff, LeasesOutliveAHangUpOfTheSameSessionOnly) {
  ArenaServer srv;
  constexpr std::uint64_t kSession = 0x5E55;
  const auto first = put_arena_item(srv, 0);
  GetReplyMsg reply;
  std::uint64_t lease = 0;
  {
    auto c = RawLessee::attach(srv.server.port(), kSession);
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(c->get(reply));
    lease = reply.lease;
    ASSERT_NE(lease, 0u);
  }  // hang-up, holding the lease
  put_arena_item(srv, 1);
  put_arena_item(srv, 2);  // the channel lets go of the lent item

  // The same session reconnects: the lease still pins the item...
  auto c = RawLessee::attach(srv.server.port(), kSession);
  ASSERT_TRUE(c.has_value());
  srv.rt.clock().sleep_for(millis(100));  // the old connection is long reaped
  EXPECT_FALSE(first.expired()) << "a same-session hang-up must keep the lease";
  EXPECT_EQ(leases_of(srv.rt), 1);

  // ...until its id comes back, on the new connection.
  ASSERT_TRUE(c->get(reply, {lease}));
  ASSERT_EQ(reply.item.ts, 2);
  ASSERT_NE(reply.lease, 0u);
  EXPECT_TRUE(await(srv.rt, [&] { return first.expired(); }))
      << "a released lease must unpin its item";

  // A new session on the slot means the old holder is gone: its lease ends.
  const auto second = put_arena_item(srv, 3);
  ASSERT_TRUE(c->get(reply));
  ASSERT_EQ(reply.item.ts, 3);
  ASSERT_NE(reply.lease, 0u);
  put_arena_item(srv, 4);
  c->s.close();
  EXPECT_EQ(leases_of(srv.rt), 2);
  auto fresh = RawLessee::attach(srv.server.port(), kSession + 1);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(await(srv.rt, [&] { return second.expired(); }))
      << "a new session must release the old session's leases";
  EXPECT_EQ(leases_of(srv.rt), 0);
}

TEST(ArenaHandoff, HostileLesseesCannotPinMoreThanMaxLeasesPerSlot) {
  ArenaServer srv;
  constexpr std::uint64_t kSession = 0xBAD;
  Timestamp ts = 0;
  std::uint64_t some_lease = 0;
  // Never releasing, across reconnects, while sending only unknown ids.
  for (int conn = 0; conn < 3; ++conn) {
    auto c = RawLessee::attach(srv.server.port(), kSession);
    ASSERT_TRUE(c.has_value());
    for (std::size_t i = 0; i < kMaxLeases; ++i) {
      put_arena_item(srv, ts++);
      GetReplyMsg reply;
      ASSERT_TRUE(c->get(reply, {0, 0xDEAD'BEEF'0000ULL, ~std::uint64_t{0}}));
      if (reply.lease != 0) some_lease = reply.lease;
    }
    EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));
  }
  ASSERT_NE(some_lease, 0u);

  // A repeated id ends its lease once: one slot frees, not three.
  auto c = RawLessee::attach(srv.server.port(), kSession);
  ASSERT_TRUE(c.has_value());
  put_arena_item(srv, ts++);
  GetReplyMsg reply;
  ASSERT_TRUE(c->get(reply, {some_lease, some_lease, some_lease}));
  EXPECT_NE(reply.lease, 0u) << "the released slot is lent again";
  put_arena_item(srv, ts++);
  ASSERT_TRUE(c->get(reply, {some_lease}));
  EXPECT_EQ(reply.lease, 0u) << "a repeated id must not free another slot";
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));

  // A Get that still carries a v6 released list drops the connection and
  // frees nothing.
  FrameBuf frame = c->get_frame();
  const std::uint16_t one = 1;
  std::memcpy(frame.data.data() + frame.len, &one, sizeof(one));
  std::memcpy(frame.data.data() + frame.len + 2, &some_lease, sizeof(some_lease));
  frame.len += 10;
  const auto body_len = static_cast<std::uint32_t>(frame.len - kHeaderBytes);
  std::memcpy(frame.data.data() + 4, &body_len, sizeof(body_len));
  ASSERT_TRUE(c->send(frame));
  EXPECT_TRUE(raw_hung_up(c->s)) << "a get with a released list must drop the link";
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));

  // So does an over-long release frame, and a release on a link that holds
  // no consumer slot.
  {
    auto r = RawLessee::attach(srv.server.port(), kSession);
    ASSERT_TRUE(r.has_value());
    ASSERT_TRUE(r->send(overlong_release()));
    EXPECT_TRUE(raw_hung_up(r->s)) << "an over-long release frame must drop the link";
    auto p = raw_hello(srv.server.port(), producer_hello(ArenaRef{}));
    ASSERT_TRUE(p.has_value());
    ASSERT_EQ(p->send_all(encode(ReleaseMsg{.released = {some_lease}}).span(), seconds(2)),
              IoStatus::kOk);
    EXPECT_TRUE(raw_hung_up(*p)) << "a producer link holds no leases to release";
  }
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));

  // The server still serves, within the cap.
  auto again = RawLessee::attach(srv.server.port(), kSession);
  ASSERT_TRUE(again.has_value());
  put_arena_item(srv, ts++);
  ASSERT_TRUE(again->get(reply));
  EXPECT_EQ(reply.lease, 0u);
  EXPECT_EQ(leases_of(srv.rt), static_cast<std::int64_t>(kMaxLeases));
}

TEST(ArenaHandoff, ServerStopReleasesEveryLease) {
  ArenaServer srv;
  auto c = RawLessee::attach(srv.server.port(), 0x570);
  ASSERT_TRUE(c.has_value());
  std::vector<std::weak_ptr<Item>> lent;
  for (Timestamp ts = 0; ts < 4; ++ts) {
    lent.push_back(put_arena_item(srv, ts));
    GetReplyMsg reply;
    ASSERT_TRUE(c->get(reply));
    ASSERT_NE(reply.lease, 0u);
  }
  put_arena_item(srv, 4);  // newer than every lent reply
  lent.pop_back();         // the channel may still hold the newest reply
  for (const auto& w : lent) EXPECT_FALSE(w.expired());
  srv.server.stop();
  for (const auto& w : lent) EXPECT_TRUE(w.expired()) << "stop must release every lease";
  EXPECT_EQ(leases_of(srv.rt), 0);
}

TEST(ArenaHandoff, BorrowedReplyIsReadInPlaceAndChargedOnlyToTheLender) {
  // Through the real client: a get reply is a read-only view of the
  // server's slab, counted once — by the lender, until it is released —
  // and it stays byte-exact while the lender recycles hundreds of slabs.
  ArenaServer srv;
  Runtime client;
  RemoteChannel proxy(client, {.name = "frames",
                               .transport = fast_transport(srv.server.port()),
                               .consumer_key = 0});
  std::stop_source stop;
  srv.ch.put(frame_item(srv.rt, 0), {});
  auto held = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
  ASSERT_NE(held, nullptr);
  ASSERT_TRUE(has_frame_pattern(*held));
  EXPECT_EQ(held->charged_bytes(), 0u) << "a borrowed reply charges the borrower nothing";
  EXPECT_TRUE(std::const_pointer_cast<Item>(held)->mutable_data().empty())
      << "a borrowed payload must never be writable";
  EXPECT_EQ(client.memory().total_bytes(), 0);
  EXPECT_EQ(srv.rt.memory().total_bytes(), static_cast<std::int64_t>(kFramePayload))
      << "the lender's pinned item keeps counting";

  for (Timestamp ts = 1; ts <= 300; ++ts) {
    srv.ch.put(frame_item(srv.rt, ts), {});
    const auto got = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->ts(), ts);
    if (ts % 50 == 0) {
      EXPECT_TRUE(has_frame_pattern(*got)) << "ts " << ts;
    }
    EXPECT_EQ(client.memory().total_bytes(), 0);
  }
  EXPECT_TRUE(has_frame_pattern(*held)) << "a held view must survive slab recycling";
  // Every dropped view went back at once over the idle link; the held one
  // still counts on the lender, beside what the channel stores.
  const auto lender_holds = [&](std::size_t pinned) {
    return srv.rt.memory().total_bytes() ==
           static_cast<std::int64_t>(kFramePayload * (srv.ch.size() + pinned));
  };
  EXPECT_TRUE(await(srv.rt, [&] { return lender_holds(1); }));
  EXPECT_EQ(leases_of(srv.rt), 1);

  // Dropping the last view returns its lease too.
  held.reset();
  EXPECT_TRUE(await(srv.rt, [&] { return lender_holds(0); }));
  EXPECT_EQ(leases_of(srv.rt), 0);
  srv.ch.put(frame_item(srv.rt, 301), {});
  ASSERT_NE(proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item, nullptr);
  srv.server.stop();
  EXPECT_EQ(leases_of(srv.rt), 0);
  EXPECT_EQ(client.memory().total_bytes(), 0);
  EXPECT_EQ(srv.rt.memory().total_bytes(),
            static_cast<std::int64_t>(kFramePayload * srv.ch.size()))
      << "only what the channel still holds may count";
  client.stop();
}

TEST(ArenaHandoff, ReleaseFramesAreTracedLikeEveryOtherFrame) {
  // A view dropped while its link is idle returns its lease in a kRelease
  // frame sent by the dropping thread. The trace must carry those bytes
  // as kNetTx, so the link's traced tx equals its live tx counter.
  ArenaServer srv;
  Runtime client;
  RemoteChannel proxy(client, {.name = "frames",
                               .transport = fast_transport(srv.server.port()),
                               .consumer_key = 0});
  std::stop_source stop;
  for (Timestamp ts = 0; ts < 20; ++ts) {
    srv.ch.put(frame_item(srv.rt, ts), {});
    const auto got = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(got, nullptr);
    ASSERT_TRUE(got->data().size() == kFramePayload && got->charged_bytes() == 0)
        << "ts " << ts << " must arrive as a lent view";
  }  // each view dies at the end of its iteration, with the link idle
  EXPECT_TRUE(await(srv.rt, [&] { return leases_of(srv.rt) == 0; }));
  srv.server.stop();
  client.stop();

  const stats::Trace trace = client.take_trace();
  std::uint64_t traced = 0;
  int release_frames = 0;
  for (const stats::Event& e : trace.events) {
    if (e.type != stats::EventType::kNetTx || e.node != proxy.id()) continue;
    traced += static_cast<std::uint64_t>(e.a);
    if (e.b == static_cast<std::int64_t>(MsgType::kRelease)) ++release_frames;
  }
  EXPECT_GT(release_frames, 0) << "dropped views must go back in kRelease frames";
  EXPECT_EQ(traced,
            client.metrics().counter("aru_net_tx_bytes_total", "", {{"link", "frames/get"}})
                .value());
}

TEST(ArenaHandoff, ViewDroppedWhileTheNextGetIsParkedReturnsAtOnce) {
  // A real consumer's next get is parked on the server (nothing newer is
  // stored) when the view of its previous reply dies. The lease must go
  // back at once, not with a later get: the server reads the kRelease
  // frame during the park.
  ArenaServer srv;
  Runtime client;
  RemoteChannel proxy(client, {.name = "frames",
                               .transport = fast_transport(srv.server.port()),
                               .consumer_key = 0});
  std::stop_source stop;
  const auto lent = put_arena_item(srv, 0);
  auto view = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(view->charged_bytes(), 0u) << "the reply must arrive as a lent view";
  ASSERT_EQ(leases_of(srv.rt), 1);

  telemetry::Counter& tx =
      client.metrics().counter("aru_net_tx_bytes_total", "", {{"link", "frames/get"}});
  const std::uint64_t tx_before = tx.value();
  std::atomic<bool> returned{false};
  std::thread reader([&] {
    proxy.get_latest(millis(1), kNoTimestamp, stop.get_token());
    returned = true;
  });
  ASSERT_TRUE(await(client, [&] { return tx.value() > tx_before; })) << "the get went out";

  view.reset();
  EXPECT_TRUE(await(srv.rt, [&] { return leases_of(srv.rt) == 0 && lent.expired(); },
                    millis(200)))
      << "a view dropped during a parked get must end its lease at once";
  EXPECT_FALSE(returned.load()) << "the get must still be parked";

  put_arena_item(srv, 1);  // ends the park
  reader.join();
  EXPECT_TRUE(returned.load());
  srv.server.stop();
  client.stop();
}

TEST(ArenaHandoff, ViewsDyingOnManyThreadsDuringGetsStrandNoLease) {
  // Views die on several threads while the link runs gets back to back,
  // so their try-locks often meet a held write lock. Whoever holds it must
  // send what queued behind it: once the last view is dead, every lease
  // ends while the link's next get is parked, before any later get.
  ArenaServer srv;
  Runtime client;
  RemoteChannel proxy(client, {.name = "frames",
                               .transport = fast_transport(srv.server.port()),
                               .consumer_key = 0});
  std::stop_source stop;

  std::atomic<Timestamp> next_ts{0};
  std::atomic<bool> producing{true};
  std::thread producer([&] {
    while (producing.load()) {
      put_arena_item(srv, next_ts++);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Each dropper takes whatever views were handed to it and drops them
  // all at once, outside its lock.
  struct Hand {
    util::Mutex mu;
    std::vector<std::shared_ptr<const Item>> views GUARDED_BY(mu);
  };
  constexpr int kDroppers = 4;
  std::array<Hand, kDroppers> hands;
  std::atomic<bool> handing{true};
  std::vector<std::thread> droppers;
  for (Hand& hand : hands) {
    droppers.emplace_back([&hand, &handing] {
      for (;;) {
        const bool last = !handing.load();
        std::vector<std::shared_ptr<const Item>> mine;
        {
          const util::MutexLock lock(hand.mu);
          mine.swap(hand.views);
        }
        mine.clear();
        if (last) return;
        std::this_thread::yield();
      }
    });
  }
  const auto hand_over = [&](std::shared_ptr<const Item> view, int i) {
    Hand& hand = hands[static_cast<std::size_t>(i % kDroppers)];
    const util::MutexLock lock(hand.mu);
    hand.views.push_back(std::move(view));
  };

  constexpr int kGets = 300;
  for (int i = 0; i < kGets; ++i) {
    auto view = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(view, nullptr);
    hand_over(std::move(view), i);
  }
  producing = false;
  producer.join();
  put_arena_item(srv, next_ts++);  // unseen: the next get returns at once
  hand_over(proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item, kGets);

  // The next get parks; the last views die meanwhile.
  std::atomic<bool> returned{false};
  std::thread reader([&] {
    proxy.get_latest(millis(1), kNoTimestamp, stop.get_token());
    returned = true;
  });
  handing = false;
  for (std::thread& t : droppers) t.join();
  EXPECT_TRUE(await(srv.rt, [&] { return leases_of(srv.rt) == 0; }, seconds(2)))
      << leases_of(srv.rt) << " leases stranded after every view died";
  EXPECT_FALSE(returned.load()) << "no later get may have carried them";

  put_arena_item(srv, next_ts++);
  reader.join();
  EXPECT_TRUE(await(srv.rt, [&] { return leases_of(srv.rt) == 0; }));
  srv.server.stop();
  client.stop();
}

TEST(ArenaHandoff, HostileFramesDuringAParkedGetAreHandledAsBetweenGets) {
  // Whatever a consumer sends while its get is parked is judged as it
  // would be between gets: a protocol violation drops the connection, an
  // unknown or repeated lease id is ignored. Either way a same-session
  // reconnect keeps its leases and is served.
  constexpr std::uint64_t kSession = 0x9A4C;
  struct Case {
    const char* what;
    std::function<FrameBuf(std::uint64_t lease)> frame;
    bool drops;
    std::int64_t leases_after;
  };
  const FrameBuf garbled = [] {
    FrameBuf f = encode_heartbeat();
    f.data[0] = std::byte{0xFF};  // bad magic
    return f;
  }();
  const std::vector<Case> cases = {
      {"a second get", [](std::uint64_t) { return encode(GetMsg{}); }, true, 2},
      {"a put on a consumer-only link", [](std::uint64_t) { return raw_put_frame(1, 50); },
       true, 2},
      {"unknown lease ids",
       [](std::uint64_t) {
         return encode(ReleaseMsg{.released = {0, 0xDEAD'BEEF'0000ULL, ~std::uint64_t{0}}});
       },
       false, 2},
      {"a repeated lease id",
       [](std::uint64_t lease) { return encode(ReleaseMsg{.released = {lease, lease, lease}}); },
       false, 1},
      {"more than kMaxLeases ids", [](std::uint64_t) { return overlong_release(); }, true, 2},
      {"a garbled header", [&](std::uint64_t) { return garbled; }, true, 2},
      {"a hang-up", nullptr, true, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ArenaServer srv;
    auto lessee = RawLessee::attach(srv.server.port(), kSession);
    ASSERT_TRUE(lessee.has_value());
    std::vector<std::weak_ptr<Item>> lent;
    std::uint64_t first_lease = 0;
    for (Timestamp ts = 0; ts < 2; ++ts) {
      lent.push_back(put_arena_item(srv, ts));
      GetReplyMsg reply;
      ASSERT_TRUE(lessee->get(reply));
      ASSERT_NE(reply.lease, 0u);
      if (ts == 0) first_lease = reply.lease;
    }
    ASSERT_EQ(leases_of(srv.rt), 2);

    GetReplyMsg reply;
    ASSERT_TRUE(lessee->send(lessee->get_frame()));  // parks: nothing newer
    if (c.frame) {
      ASSERT_TRUE(lessee->send(c.frame(first_lease)));
    } else {
      lessee->s.close();
    }
    if (c.drops) {
      if (lessee->s.valid()) {
        EXPECT_TRUE(raw_hung_up(lessee->s));
      }
    } else {
      put_arena_item(srv, 3);  // the parked get is still there to answer
      ASSERT_TRUE(lessee->read_reply(reply));
      EXPECT_TRUE(reply.has_item);
      EXPECT_EQ(reply.item.ts, 3);
      if (reply.lease != 0) {
        ASSERT_TRUE(lessee->send(encode(ReleaseMsg{.released = {reply.lease}})));
      }
    }
    EXPECT_TRUE(await(srv.rt, [&] { return leases_of(srv.rt) == c.leases_after; }));
    lessee->s.close();

    auto again = RawLessee::attach(srv.server.port(), kSession);
    ASSERT_TRUE(again.has_value());
    srv.rt.clock().sleep_for(millis(50));
    EXPECT_EQ(leases_of(srv.rt), c.leases_after) << "a same-session reconnect keeps leases";
    EXPECT_FALSE(lent[1].expired());
    put_arena_item(srv, 10);
    ASSERT_TRUE(again->get(reply)) << "a clean client must be served";
    EXPECT_TRUE(reply.has_item);
    EXPECT_EQ(reply.item.ts, 10);
  }
}

TEST(ArenaHandoff, FrameRoundTripThroughAChildProcessUsesTheArenas) {
  // front → mid → back on one host, mid an spd_node child; front and back
  // are two runtimes of this process, each with an arena of its own. mid
  // stores front's puts as views of front's slabs and lends them on: back's
  // first reply rides the tail and offers front's arena, and every later
  // one is a view back reads in front's slab. back's leases pin mid's
  // items, which pin front's slabs; no byte is copied on either hop.
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime front_rt;
  Runtime back_rt;
  RemoteChannel front(front_rt, {.name = "frames",
                                 .transport = fast_transport(node.port),
                                 .producer_key = 0});
  RemoteChannel back(back_rt, {.name = "frames",
                               .transport = fast_transport(node.port),
                               .consumer_key = 0});
  const std::uint64_t front_token = local_arena(*front_rt.context().pool).token;
  ASSERT_NE(front_token, 0u) << "memfd arenas unavailable";
  std::stop_source stop;

  constexpr Timestamp kFrames = 4;
  std::vector<std::shared_ptr<const Item>> held;
  for (Timestamp ts = 0; ts < kFrames; ++ts) {
    ASSERT_TRUE(front.put(frame_item(front_rt, ts), stop.get_token()).stored);
    ASSERT_TRUE(front.drain_puts(stop.get_token()));
    auto got = back.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->ts(), ts);
    EXPECT_TRUE(has_frame_pattern(*got)) << "ts " << ts;
    const PeerArena* arena = PeerArena::lent_from(got->payload());
    if (ts == 0) {
      EXPECT_EQ(arena, nullptr) << "back has yet to map front's arena";
      continue;
    }
    ASSERT_NE(arena, nullptr) << "ts " << ts << " was not lent";
    EXPECT_EQ(arena->ref().token, front_token) << "mid must re-lend front's slab";
    EXPECT_EQ(arena->ref().pid, ::getpid());
    held.push_back(std::move(got));
  }
  EXPECT_EQ(back_rt.memory().total_bytes(), 0) << "back's views are front's bytes";
  const auto counter = [](Runtime& rt, const char* name, const char* link) {
    return rt.metrics().counter(name, "", {{"link", link}}).value();
  };
  EXPECT_EQ(counter(front_rt, "aru_net_arena_bytes_total", "frames/put"),
            kFrames * kFramePayload);
  EXPECT_EQ(counter(back_rt, "aru_net_arena_bytes_total", "frames/get"),
            (kFrames - 1) * kFramePayload);
  // tx/rx still count the payload bytes, plus envelopes.
  EXPECT_GE(counter(front_rt, "aru_net_tx_bytes_total", "frames/put"), kFrames * kFramePayload);
  EXPECT_GE(counter(back_rt, "aru_net_rx_bytes_total", "frames/get"), kFrames * kFramePayload);
  // back's views pin front's slabs through mid: the last ack listed them.
  EXPECT_GE(front_rt.metrics().gauge("aru_net_put_leases", "", {{"link", "frames/put"}}).value(),
            static_cast<std::int64_t>(held.size()) - 1);
  held.clear();
  back_rt.stop();
  front_rt.stop();
}

/// The frame pattern of `ts` (see has_frame_pattern), as a payload tail.
std::vector<std::byte> frame_bytes(Timestamp ts) {
  std::vector<std::byte> bytes(kFramePayload);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = std::byte(static_cast<unsigned>(i * 31 + static_cast<std::size_t>(ts)));
  }
  return bytes;
}

/// Sends a kFramePayload tail put of `ts` on a raw producer link.
bool raw_tail_put(TcpStream& s, std::uint64_t seq, Timestamp ts) {
  PutMsg m{.seq = seq};
  m.item.ts = ts;
  m.item.payload_bytes = static_cast<std::uint32_t>(kFramePayload);
  const std::vector<std::byte> bytes = frame_bytes(ts);
  return s.send_all(encode(m).span(), seconds(2)) == IoStatus::kOk &&
         s.send_all(bytes, seconds(2)) == IoStatus::kOk && raw_await_cum_ack(s, seq);
}

TEST(ArenaHandoff, ViewsOfASigkilledLenderStayByteExact) {
  // Borrowed replies view the child's arena through this process's own
  // mapping, which outlives the child: SIGKILL must not fault them or
  // change a byte, and dropping them afterwards releases into a link
  // whose peer is gone, harmlessly. A raw producer sends the frames as
  // payload tails, so they land in the child's own slabs.
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(node.port),
                           .consumer_key = 0});
  auto producer = raw_hello(node.port, HelloMsg{.channel = "frames",
                                                .producer_key = 0,
                                                .session = 0x7A11,
                                                .start_seq = 1});
  ASSERT_TRUE(producer.has_value());
  std::stop_source stop;
  std::vector<std::shared_ptr<const Item>> held;
  for (Timestamp ts = 0; ts < 4; ++ts) {
    ASSERT_TRUE(raw_tail_put(*producer, static_cast<std::uint64_t>(ts) + 1, ts));
    auto got = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token());
    ASSERT_NE(got.item, nullptr);
    const PeerArena* arena = PeerArena::lent_from(got.item->payload());
    ASSERT_NE(arena, nullptr) << "ts " << ts << " was not borrowed";
    EXPECT_EQ(arena->ref().pid, node.pid) << "the view must be of the child's arena";
    held.push_back(std::move(got.item));
  }
  EXPECT_EQ(rt.memory().total_bytes(), 0) << "the views are the child's bytes";
  node.kill_hard();
  for (const auto& item : held) {
    EXPECT_TRUE(has_frame_pattern(*item)) << "ts " << item->ts();
  }
  held.clear();
  rt.stop();
}

// -- lent puts (wire v8) ------------------------------------------------------

std::int64_t put_leases_of(Runtime& rt) {
  return rt.metrics().gauge("aru_net_put_leases", "", {{"link", "frames/put"}}).value();
}

TEST(ArenaHandoff, PutsToAServerThatNeverReleasesPinAtMostMaxLeases) {
  // The served channel's only consumer never reads, so the server holds a
  // view of every lent put for good. The producer lends kMaxLeases slabs,
  // then sends payload tails, which the server stores byte for byte in its
  // own slabs.
  ArenaServer srv;
  Runtime front;
  RemoteChannel proxy(front, {.name = "frames",
                              .transport = fast_transport(srv.server.port()),
                              .producer_key = 0});
  std::stop_source stop;
  constexpr auto kPuts = static_cast<Timestamp>(kMaxLeases) + 4;
  std::vector<std::weak_ptr<Item>> sent;
  for (Timestamp ts = 0; ts < kPuts; ++ts) {
    auto item = frame_item(front, ts);
    sent.push_back(item);
    ASSERT_TRUE(proxy.put(std::move(item), stop.get_token()).stored);
    ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  }
  EXPECT_EQ(put_leases_of(front), static_cast<std::int64_t>(kMaxLeases));
  ASSERT_EQ(srv.ch.size(), static_cast<std::size_t>(kPuts));
  for (Timestamp ts = 0; ts < kPuts; ++ts) {
    const bool lent = ts < static_cast<Timestamp>(kMaxLeases);
    EXPECT_EQ(sent[static_cast<std::size_t>(ts)].expired(), !lent)
        << "ts " << ts << ": only a lent slab stays pinned past its ack";
    const auto got = srv.ch.get_at(0, ts, aru::kUnknownStp);
    ASSERT_NE(got.item, nullptr) << "ts " << ts;
    EXPECT_EQ(PeerArena::lent_from(got.item->payload()) != nullptr, lent) << "ts " << ts;
    EXPECT_TRUE(has_frame_pattern(*got.item)) << "ts " << ts;
  }
  EXPECT_EQ(srv.rt.memory().total_bytes(), static_cast<std::int64_t>(4 * kFramePayload))
      << "the server charges the tails it stored, not the slabs it borrows";
  front.stop();
}

TEST(ArenaHandoff, PutLeaseGaugeReturnsToZeroOnceTheChannelLetsGo) {
  ArenaServer srv;
  Runtime front;
  RemoteChannel proxy(front, {.name = "frames",
                              .transport = fast_transport(srv.server.port()),
                              .producer_key = 0});
  std::stop_source stop;
  for (Timestamp ts = 0; ts < 5; ++ts) {
    ASSERT_TRUE(proxy.put(frame_item(front, ts), stop.get_token()).stored);
  }
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_EQ(put_leases_of(front), 5) << "the channel holds every frame";
  EXPECT_EQ(front.memory().total_bytes(), static_cast<std::int64_t>(5 * kFramePayload))
      << "a lent slab stays charged to its lender";

  // A small put (a tail) becomes the latest item; reading it lets the
  // channel's GC drop every frame, and the next ack lists none.
  ASSERT_TRUE(proxy.put(make_item(front, 5), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  ASSERT_NE(srv.ch.get_latest(0, aru::kUnknownStp, kNoTimestamp, {}).item, nullptr);
  ASSERT_TRUE(proxy.put(make_item(front, 6), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_EQ(put_leases_of(front), 0);
  EXPECT_EQ(front.memory().total_bytes(), 0) << "released slabs must be let go";
  front.stop();
}

/// A fake server for one producer link, scripted by the test: it answers
/// each Hello with `instance`, reads put frames (tails included) and sends
/// whatever ack the test hands it.
struct FakePutServer {
  TcpListener listener = *TcpListener::listen(0);
  std::optional<TcpStream> s;

  bool attach(std::uint64_t instance) {
    s.reset();  // a hang-up: the producer redials
    s = listener.accept(seconds(5));
    FrameHeader h;
    std::vector<std::byte> body;
    if (!s || !raw_read_frame(*s, h, body) || h.type != MsgType::kHello) return false;
    return s->send_all(
               encode(HelloAckMsg{.ok = true, .credits = 64, .peer_mapped = true,
                                  .instance = instance})
                   .span(),
               seconds(2)) == IoStatus::kOk;
  }

  /// Reads the next put; its seq and whether it named an arena go out.
  bool read_put(std::uint64_t* seq, bool* lent) {
    FrameHeader h;
    std::vector<std::byte> body;
    PutMsg put;
    if (!raw_read_frame(*s, h, body) || h.type != MsgType::kPut ||
        !decode(std::span<const std::byte>(body), put, nullptr)) {
      return false;
    }
    std::vector<std::byte> tail(h.payload_len);
    if (!tail.empty() && s->recv_exact(tail, seconds(2)) != IoStatus::kOk) return false;
    *seq = put.seq;
    *lent = put.item.arena_offset != kNoArenaOffset;
    return true;
  }

  bool ack(const FrameBuf& frame) { return s->send_all(frame.span(), seconds(2)) == IoStatus::kOk; }
};

/// A put ack whose held list claims kMaxLeases + 1 seqs, all present.
FrameBuf overlong_held_ack(std::uint64_t cum_seq) {
  PutAckMsg ack{.cum_seq = cum_seq, .credits = 64};
  ack.held.assign(kMaxLeases, cum_seq);
  FrameBuf frame = encode(ack);
  const auto forged = static_cast<std::uint16_t>(kMaxLeases + 1);
  std::memcpy(frame.data.data() + frame.len - 2 - 8 * kMaxLeases, &forged, sizeof(forged));
  std::memcpy(frame.data.data() + frame.len, &cum_seq, sizeof(cum_seq));
  frame.len += 8;
  const auto body_len = static_cast<std::uint32_t>(frame.len - kHeaderBytes);
  std::memcpy(frame.data.data() + 4, &body_len, sizeof(body_len));
  return frame;
}

TEST(ArenaHandoff, HeldListsFromAHostileServerAreHandledWithoutHarm) {
  // Unknown and repeated seqs change nothing; an over-long list drops the
  // link but keeps every pin, since a hang-up says nothing about the
  // server's views; a reconnect to the same instance settles them by its
  // next list; a HelloAck from another instance ends them all.
  FakePutServer fake;
  Runtime front;
  auto owned = std::make_unique<RemoteChannel>(
      front, RemoteChannelConfig{.name = "frames",
                                 .transport = fast_transport(fake.listener.port()),
                                 .producer_key = 0});
  RemoteChannel& proxy = *owned;
  std::stop_source stop;
  std::vector<std::weak_ptr<Item>> sent;
  const auto put_frame = [&](Timestamp ts) {
    auto item = frame_item(front, ts);
    sent.push_back(item);
    return proxy.put(std::move(item), stop.get_token()).stored;
  };
  std::atomic<bool> scripted{true};
  std::thread server([&] {
    std::uint64_t seq = 0;
    bool lent = false;
    scripted = fake.attach(7) &&
               // seq 1: held, listed with an unknown seq, twice.
               fake.read_put(&seq, &lent) && seq == 1 && lent &&
               fake.ack(encode(PutAckMsg{.cum_seq = 1, .credits = 64, .held = {1, 999, 1, 999}})) &&
               // seq 2: held; seq 1 is no longer listed.
               fake.read_put(&seq, &lent) && seq == 2 && lent &&
               fake.ack(encode(PutAckMsg{.cum_seq = 2, .credits = 64, .held = {2, 2}})) &&
               // seq 3: an over-long list. The client hangs up and comes
               // back to the same instance with seq 3 again, still lent.
               fake.read_put(&seq, &lent) && seq == 3 && lent &&
               fake.ack(overlong_held_ack(3)) && fake.attach(7) &&
               fake.read_put(&seq, &lent) && seq == 3 && lent &&
               fake.ack(encode(PutAckMsg{.cum_seq = 3, .credits = 64, .held = {2}})) &&
               // Another instance: whatever the old one held is gone.
               fake.read_put(&seq, &lent) && seq == 4 && fake.attach(8);
    while (scripted && fake.read_put(&seq, &lent)) {
      fake.ack(encode(PutAckMsg{.cum_seq = seq, .credits = 64}));
    }
  });

  ASSERT_TRUE(put_frame(1));
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_FALSE(sent[0].expired()) << "a listed seq stays pinned";
  EXPECT_EQ(put_leases_of(front), 1);

  ASSERT_TRUE(put_frame(2));
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_TRUE(sent[0].expired()) << "a seq the ack covers but does not list is free";
  EXPECT_FALSE(sent[1].expired());
  EXPECT_EQ(put_leases_of(front), 1);

  ASSERT_TRUE(put_frame(3));
  ASSERT_TRUE(proxy.drain_puts(stop.get_token())) << "the resent put was never acked";
  EXPECT_GE(proxy.reconnects(), 1) << "an over-long list must drop the link";
  EXPECT_FALSE(sent[1].expired()) << "a hang-up must keep the pins";
  EXPECT_TRUE(sent[2].expired());
  EXPECT_EQ(put_leases_of(front), 1);

  // The fake takes seq 4 without acking it and hangs up; the producer's
  // next attach meets instance 8 and forgets what instance 7 held.
  ASSERT_TRUE(put_frame(4));
  EXPECT_TRUE(proxy.drain_puts(stop.get_token()));
  EXPECT_TRUE(scripted.load());
  EXPECT_TRUE(sent[1].expired()) << "a new server instance holds none of our slabs";
  EXPECT_EQ(put_leases_of(front), 0);
  owned.reset();  // hangs up: the fake's read loop ends
  server.join();
  front.stop();
}

/// A loopback TCP relay that can cut the connection it carries: the client
/// redials through it to the same server, which is how a same-session
/// reconnect to a live server is staged. One thread, polling both ends.
struct Relay {
  TcpListener listener = *TcpListener::listen(0);
  const std::uint16_t upstream;
  std::atomic<int> cuts{0};
  std::atomic<bool> stop{false};
  std::thread thread;

  explicit Relay(std::uint16_t server) : upstream(server), thread([this] { run(); }) {}
  ~Relay() {
    stop = true;
    thread.join();
  }
  void cut() { ++cuts; }

  void run() {
    std::vector<std::byte> buf(std::size_t{64} << 10);
    while (!stop.load()) {
      auto client = listener.accept(millis(20));
      if (!client) continue;
      auto server = TcpStream::connect("127.0.0.1", upstream, seconds(2));
      if (!server) continue;
      const int cut_at = cuts.load();
      bool open = true;
      while (open && !stop.load() && cuts.load() == cut_at) {
        bool moved = false;
        for (auto [from, to] : {std::pair{&*client, &*server}, std::pair{&*server, &*client}}) {
          if (!open || !from->readable(Nanos{0})) continue;
          std::size_t n = 0;
          open = from->recv_some(buf, &n, seconds(1)) == IoStatus::kOk && n > 0 &&
                 to->send_all(std::span(buf).first(n), seconds(2)) == IoStatus::kOk;
          moved = true;
        }
        if (!moved) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }  // both ends close here
  }
};

TEST(ArenaHandoff, LentPutStaysUnrecycledAcrossASameSessionReconnect) {
  // The server keeps holding its view of a lent put when the producer's
  // link drops, so the producer must keep the slab pinned through the
  // reconnect while it recycles 300 frame slabs around it; the pin ends
  // once the server lets go, on an ack of the new connection.
  ArenaServer srv;
  Relay relay(srv.server.port());
  Runtime front;
  RemoteChannel proxy(front, {.name = "frames",
                              .transport = fast_transport(relay.listener.port()),
                              .producer_key = 0});
  std::stop_source stop;
  auto first = frame_item(front, 0);
  const std::weak_ptr<Item> first_weak = first;
  ASSERT_TRUE(proxy.put(std::move(first), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  auto held = srv.ch.get_latest(0, aru::kUnknownStp, kNoTimestamp, {}).item;
  ASSERT_NE(held, nullptr);
  ASSERT_NE(PeerArena::lent_from(held->payload()), nullptr) << "the put must be lent";

  relay.cut();
  Timestamp seen = held->ts();
  for (Timestamp ts = 1; ts <= 300; ++ts) {
    proxy.put(frame_item(front, ts), stop.get_token());  // a put on the dead link drops
    if (srv.ch.latest_ts() > seen) {  // read what arrived, so GC lets the views die
      seen = srv.ch.get_latest(0, aru::kUnknownStp, kNoTimestamp, {}).item->ts();
    }
    if (ts % 50 == 0) {
      EXPECT_TRUE(proxy.drain_puts(stop.get_token()));
      EXPECT_TRUE(has_frame_pattern(*held)) << "ts " << ts;
      EXPECT_FALSE(first_weak.expired()) << "ts " << ts;
    }
  }
  EXPECT_GE(proxy.reconnects(), 1) << "the cut must have forced a reconnect";
  EXPECT_TRUE(has_frame_pattern(*held)) << "a held view must survive slab recycling";
  EXPECT_EQ(srv.rt.memory().total_bytes(), 0) << "lent puts are charged to front only";

  held.reset();
  EXPECT_TRUE(await(front, [&] {
    proxy.put(make_item(front, 1000), stop.get_token());
    proxy.drain_puts(stop.get_token());
    return first_weak.expired();
  })) << "the pin must end once the server lets go";
  front.stop();
}

TEST(ArenaHandoff, OfferedArenasThatFailToMapRideTheTail) {
  // A hostile server offers a consumer arenas it must not map: a wrong
  // token, a FIFO, another process's descriptor. Every check fails, so the
  // link never names them and their items keep arriving as tails, byte for
  // byte. A good offer is mapped and named in the next Get, and a reply
  // lent from it is read in place and released when its view dies.
  PayloadPool pool(/*poison=*/false);
  pool.enable_arena();
  const ArenaRef good = local_arena(pool);
  ASSERT_NE(good.token, 0u) << "memfd arenas unavailable";
  const std::string fifo = testing::TempDir() + "/offer_fifo_" + std::to_string(::getpid());
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  const int fifo_fd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  ASSERT_GE(fifo_fd, 0);
  ArenaRef wrong_token = good;
  wrong_token.token ^= 1;
  ArenaRef not_memfd = good;
  not_memfd.fd = fifo_fd;
  not_memfd.token = good.token ^ 2;
  ArenaRef other_pid = good;
  other_pid.pid = 1;
  other_pid.token = good.token ^ 3;
  const std::array<ArenaRef, 3> bad = {wrong_token, not_memfd, other_pid};
  PayloadBuffer slab = pool.acquire(kFramePayload);
  const std::vector<std::byte> lent_bytes = frame_bytes(4);
  std::ranges::copy(lent_bytes, slab.span().begin());

  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  std::vector<std::vector<std::uint64_t>> named;  // each Get's arena list
  std::atomic<bool> released{false};
  std::thread server([&] {
    auto s = listener->accept(seconds(5));
    FrameHeader h;
    std::vector<std::byte> body;
    if (!s || !raw_read_frame(*s, h, body) || h.type != MsgType::kHello ||
        s->send_all(encode(HelloAckMsg{.ok = true, .instance = 1}).span(), seconds(2)) !=
            IoStatus::kOk) {
      return;
    }
    // Reads up to the next frame of `type`; a release is noted on the way.
    const auto next = [&](MsgType type) {
      while (raw_read_frame(*s, h, body)) {
        ReleaseMsg release;
        if (h.type == MsgType::kRelease &&
            decode(std::span<const std::byte>(body), release, nullptr) &&
            release.released == std::vector<std::uint64_t>{1}) {
          released = true;
        }
        if (h.type == type) return true;
      }
      return false;
    };
    for (Timestamp ts = 0; ts < 5; ++ts) {
      GetMsg get;
      if (!next(MsgType::kGet) || !decode(std::span<const std::byte>(body), get, nullptr)) return;
      named.push_back(get.arenas);
      GetReplyMsg reply{.has_item = true};
      reply.item.ts = ts;
      reply.item.payload_bytes = static_cast<std::uint32_t>(kFramePayload);
      std::vector<std::byte> tail;
      if (ts < 4) {
        reply.offer = ts < 3 ? bad[static_cast<std::size_t>(ts)] : good;
        tail = frame_bytes(ts);
      } else {
        reply.item.arena_offset = pool.arena_offset(slab.span().data());
        reply.item.arena_token = good.token;
        reply.lease = 1;
      }
      if (s->send_all(encode(reply).span(), seconds(2)) != IoStatus::kOk ||
          (!tail.empty() && s->send_all(tail, seconds(2)) != IoStatus::kOk)) {
        return;
      }
    }
    while (!released.load() && next(MsgType::kRelease)) {
    }
  });

  Runtime back;
  RemoteChannel proxy(back, {.name = "frames",
                             .transport = fast_transport(listener->port()),
                             .consumer_key = 0});
  std::stop_source stop;
  for (Timestamp ts = 0; ts < 4; ++ts) {
    const auto got = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->ts(), ts);
    EXPECT_FALSE(got->payload().borrowed()) << "ts " << ts << " must ride the tail";
    EXPECT_TRUE(has_frame_pattern(*got)) << "ts " << ts;
  }
  auto lent = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
  ASSERT_NE(lent, nullptr);
  ASSERT_NE(PeerArena::lent_from(lent->payload()), nullptr) << "the good arena must be mapped";
  EXPECT_TRUE(has_frame_pattern(*lent));
  lent.reset();
  server.join();
  EXPECT_TRUE(released.load()) << "the lent reply's lease must come back";

  ASSERT_EQ(named.size(), 5u);
  for (std::size_t i = 0; i < named.size(); ++i) {
    for (const ArenaRef& b : bad) {
      EXPECT_EQ(std::ranges::count(named[i], b.token), 0) << "Get " << i << " named a bad arena";
    }
    EXPECT_EQ(std::ranges::count(named[i], good.token), i == 4 ? 1 : 0) << "Get " << i;
  }
  back.stop();
  ::close(fifo_fd);
  ::unlink(fifo.c_str());
}

TEST(ArenaHandoff, ViewsOfASigkilledProducerStayByteExact) {
  // front is an spd_node child running the tracker's digitizer; mid is a
  // served "frames" channel in this process, back a second runtime here.
  // mid stores front's frames as views of front's arena and re-lends them
  // to back. SIGKILL front while both hold views: every view keeps its
  // bytes, since a memfd mapping outlives the arena's owner.
  Runtime mid;
  Channel& ch = mid.add_channel({.name = "frames", .capacity = 4});
  ChannelServer server(mid, {{.channel = &ch, .remote_producers = 1, .remote_consumers = 1}});
  server.start();
  const auto free_port = [] { return TcpListener::listen(0)->port(); };
  const std::string manifest =
      testing::TempDir() + "/sigkill_front_" + std::to_string(::getpid()) + ".manifest";
  {
    std::FILE* f = std::fopen(manifest.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f,
                 "pipeline=tracker\naru=min\nseed=5\nscale=0.25\nstride=8\n"
                 "node.front=127.0.0.1:%u\nnode.mid=127.0.0.1:%u\nnode.back=127.0.0.1:%u\n"
                 "place.digitizer=front\nplace.frames=mid\nplace.masks=mid\n"
                 "place.hists=mid\nplace.background=mid\nplace.histogram=mid\n"
                 "place.detect1=back\nplace.detect2=back\nplace.loc1=back\n"
                 "place.loc2=back\nplace.gui=back\n",
                 static_cast<unsigned>(free_port()), static_cast<unsigned>(server.port()),
                 static_cast<unsigned>(free_port()));
    std::fclose(f);
  }
  auto front = SpdNodeProc::spawn_with({"manifest=" + manifest, "node=front", "seconds=60",
                                        "quiet=true", "metrics_port=0"});
  ASSERT_GT(front.pid, 0) << "failed to spawn " << SPD_NODE_PATH;

  Runtime back;
  RemoteChannel proxy(back, {.name = "frames",
                             .transport = fast_transport(server.port()),
                             .consumer_key = 0});
  std::stop_source stop;
  const auto of_front = [&](const std::shared_ptr<const Item>& item) {
    const PeerArena* arena = item ? PeerArena::lent_from(item->payload()) : nullptr;
    return arena != nullptr && arena->ref().pid == front.pid;
  };
  // back's views, and mid's own stored items: each a view of front's
  // arena, back's through mid's re-lending. mid's is taken from the
  // channel once the next frame is in, before back reads it.
  std::vector<std::shared_ptr<const Item>> views;
  const Nanos deadline = back.clock().now() + seconds(10);
  while (views.size() < 6 && back.clock().now() < deadline) {
    auto got = proxy.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    if (!of_front(got)) continue;
    while (ch.latest_ts() <= got->ts() && back.clock().now() < deadline) {
      back.clock().sleep_for(micros(100));
    }
    auto own = ch.get_at(0, ch.latest_ts(), aru::kUnknownStp).item;
    if (!of_front(own)) continue;
    views.push_back(std::move(got));
    views.push_back(std::move(own));
  }
  ASSERT_EQ(views.size(), 6u) << "mid never re-lent a frame it stored as a view of front's";
  EXPECT_EQ(back.memory().total_bytes(), 0);
  std::vector<std::vector<std::byte>> before;
  for (const auto& v : views) before.emplace_back(v->data().begin(), v->data().end());

  front.kill_hard();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(views[i]->data(), before[i]))
        << (i % 2 == 0 ? "back's" : "mid's") << " view of ts " << views[i]->ts();
  }
  views.clear();
  back.stop();
  server.stop();
  ::unlink(manifest.c_str());
}

TEST(NetReconnect, SurvivesServerProcessKillAndRestart) {
  // SIGKILL a real spd_node child between bursts, with every put already
  // acked: the put link is idle and only learns of the kill when the next
  // put hits the dead socket. Outage puts must drop locally with the held
  // summary-STP, and after a restart on the same port the proxy reattaches
  // within the bounded backoff and stores again.
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(node.port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Stream a few items into the remote process; fetch one back so the
  // remote channel folds our consumer summary-STP and the acks carry it.
  ASSERT_TRUE(proxy.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  auto got = proxy.get_latest(millis(9), kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  ASSERT_TRUE(proxy.put(make_item(rt, 1), stop.get_token()).stored);
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  const Nanos held = proxy.summary();
  ASSERT_TRUE(aru::known(held));

  // SIGKILL the server process with nothing in flight: no goodbye, no FIN
  // from the application — the raw TCP teardown is all the client sees.
  const std::uint16_t port = node.port;
  node.kill_hard();

  std::int64_t outage_drops = 0;
  for (Timestamp ts = 2; ts < 10; ++ts) {
    const auto res = proxy.put(make_item(rt, ts), stop.get_token());
    if (res.dropped) {
      ++outage_drops;
      EXPECT_EQ(res.summary, held) << "held summary-STP must survive the outage";
    }
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(outage_drops, 5) << "puts must degrade to drops after SIGKILL";

  // Restart on the same port; the proxy must reattach and resume storing.
  auto node2 = SpdNodeProc::spawn({"port=" + std::to_string(port)});
  ASSERT_GT(node2.pid, 0);
  ASSERT_EQ(node2.port, port) << "restarted spd_node could not rebind the port";

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    const auto res = proxy.put(make_item(rt, ts++), stop.get_token());
    if (res.stored && proxy.drain_puts(stop.get_token())) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  EXPECT_TRUE(resumed);
  EXPECT_GE(proxy.reconnects(), 1);

  rt.stop();
  const stats::Trace trace = rt.take_trace();
  const auto reconnects = events_of(trace, stats::EventType::kReconnect);
  ASSERT_GE(reconnects.size(), 1u);
  EXPECT_GE(reconnects.front().a, 1);
  EXPECT_LE(reconnects.front().b, kBackoffMax.count());
  EXPECT_GE(events_of(trace, stats::EventType::kDrop, proxy.id()).size(),
            static_cast<std::size_t>(outage_drops));
}

TEST(PipelinedReconnect, SurvivesServerKillMidWindowAndReconverges) {
  // SIGKILL a real spd_node child with a window of puts in flight: no
  // goodbye, no FIN from the application, the unacked tail is mid-air. The
  // outage must degrade to drops that keep the held summary-STP. After
  // respawn on the same port the proxy must reattach within the bounded
  // backoff, replay the tail into the fresh process, and resume — with the
  // sink seeing strictly increasing timestamps (no duplicates, no
  // reordering) and the summary-STP feedback reconverging over the
  // coalesced acks. The items are frame-sized, so on this host they cross
  // as offsets into each side's arena: the kill lands while the client
  // has the server's arena mapped (it must not fault), and the respawned
  // server offers a new arena, maps ours afresh, and gets the window tail
  // re-encoded for the new link.
  auto node = SpdNodeProc::spawn({"port=0"});
  ASSERT_GT(node.pid, 0) << "failed to spawn " << SPD_NODE_PATH;
  ASSERT_NE(node.port, 0) << "could not scrape the spd_node port";

  Runtime rt;
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = fast_transport(node.port),
                           .producer_key = 0,
                           .consumer_key = 0});
  std::stop_source stop;

  // Stream a burst and confirm delivery end to end.
  for (Timestamp ts = 0; ts < 10; ++ts) {
    proxy.put(frame_item(rt, ts), stop.get_token());
  }
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  auto got = proxy.get_latest(millis(9), kNoTimestamp, stop.get_token());
  ASSERT_NE(got.item, nullptr);
  EXPECT_TRUE(has_frame_pattern(*got.item));
  // The get folded our consumer summary-STP; the next ack carries it back.
  proxy.put(frame_item(rt, 10), stop.get_token());
  ASSERT_TRUE(proxy.drain_puts(stop.get_token()));
  const Nanos held = proxy.summary();
  ASSERT_EQ(held, millis(9));

  // Kill mid-window: queue fresh puts and SIGKILL before draining them.
  const std::uint16_t port = node.port;
  for (Timestamp ts = 11; ts < 15; ++ts) {
    proxy.put(frame_item(rt, ts), stop.get_token());
  }
  node.kill_hard();

  // The outage must degrade to fail-fast local drops once detected, each
  // returning the held summary-STP.
  std::int64_t outage_drops = 0;
  for (Timestamp ts = 15; ts < 30; ++ts) {
    const auto res = proxy.put(frame_item(rt, ts), stop.get_token());
    if (res.dropped) {
      ++outage_drops;
      EXPECT_EQ(res.summary, held) << "held summary-STP must survive the outage";
    }
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_GE(outage_drops, 5) << "pipelined puts must degrade to drops after SIGKILL";

  // Respawn on the same port: the same transport session reattaches,
  // replays its unacked tail, and new puts store again.
  auto node2 = SpdNodeProc::spawn({"port=" + std::to_string(port)});
  ASSERT_GT(node2.pid, 0);
  ASSERT_EQ(node2.port, port);

  bool resumed = false;
  const Nanos deadline = rt.clock().now() + seconds(10);
  Timestamp ts = 100;
  while (rt.clock().now() < deadline) {
    const auto res = proxy.put(frame_item(rt, ts++), stop.get_token());
    if (res.stored && proxy.drain_puts(stop.get_token())) {
      resumed = true;
      break;
    }
    rt.clock().sleep_for(millis(10));
  }
  ASSERT_TRUE(resumed) << "pipelined puts never resumed after respawn";
  EXPECT_GE(proxy.reconnects(), 1);

  // No duplicate or reordered timestamps at the sink: drain whatever the
  // fresh server holds (replayed tail + post-respawn puts) and require the
  // fetched series to be strictly increasing. The gets fold a consumer
  // summary-STP different from the pre-kill one, so the fresh process's
  // feedback is told apart from the held value below.
  constexpr Nanos kRespawnSummary = millis(11);
  Timestamp last_ts = -1;
  int fetched = 0;
  for (int i = 0; i < 50; ++i) {
    got = proxy.get_latest(kRespawnSummary, kNoTimestamp, stop.get_token());
    if (got.item == nullptr) break;
    EXPECT_GT(got.item->ts(), last_ts) << "duplicate or reordered timestamp after respawn";
    EXPECT_TRUE(has_frame_pattern(*got.item)) << "ts " << got.item->ts();
    last_ts = got.item->ts();
    ++fetched;
    // keep the stream warm so the next get has something to skip to
    proxy.put(frame_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
  }
  EXPECT_GE(fetched, 1);

  // Pacing reconverges: the consumer summary folded by the gets above must
  // come back over a coalesced ack, replacing the held pre-kill value.
  const Nanos conv_deadline = rt.clock().now() + seconds(5);
  while (proxy.summary() != kRespawnSummary && rt.clock().now() < conv_deadline) {
    proxy.put(frame_item(rt, ts++), stop.get_token());
    proxy.drain_puts(stop.get_token());
    rt.clock().sleep_for(millis(5));
  }
  EXPECT_EQ(proxy.summary(), kRespawnSummary)
      << "summary-STP pacing must reconverge after the respawn";

  // Both directions went through the arenas, before and after the kill.
  EXPECT_GT(rt.metrics().counter("aru_net_arena_bytes_total", "", {{"link", "frames/put"}})
                .value(),
            0u);
  EXPECT_GT(rt.metrics().counter("aru_net_arena_bytes_total", "", {{"link", "frames/get"}})
                .value(),
            0u);

  // The trace tells the story: one kDrop per outage drop, and a bounded
  // backoff on the first recovery.
  rt.stop();
  const stats::Trace trace = rt.take_trace();
  const auto reconnects = events_of(trace, stats::EventType::kReconnect);
  ASSERT_GE(reconnects.size(), 1u);
  EXPECT_GE(reconnects.front().a, 1) << "reconnect must report >=1 failed attempt";
  EXPECT_LE(reconnects.front().b, kBackoffMax.count()) << "backoff must stay bounded";
  EXPECT_GE(events_of(trace, stats::EventType::kDrop, proxy.id()).size(),
            static_cast<std::size_t>(outage_drops));
}

}  // namespace
}  // namespace stampede::net
