/// \file test_net_stp.cpp
/// \brief What a remote get reports to ARU. The paper's current-STP is a
///        thread's period excluding blocking (§3.3.1): a get parked on the
///        server until the channel has an item is blocked, but the wire
///        copy that follows is service time. The server reports its park
///        in GetReply::waited (wire v4); the consumer books only that (plus
///        any wait for the link) as blocked, clamped to the call's own span.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/remote_channel.hpp"
#include "runtime/pool.hpp"
#include "runtime/runtime.hpp"

namespace stampede::net {
namespace {

/// Just over the pool's recycled range: a heap payload, so it crosses the
/// wire as a payload tail. An arena slab would be lent in place (wire v6)
/// and cross no bytes at all.
constexpr std::size_t kBigPayload = PayloadPool::kMaxPooledBytes + 4096;

TransportConfig test_transport(std::uint16_t port) {
  return {.port = port,
          .connect_timeout = millis(500),
          .io_timeout = seconds(2),
          .backoff_initial = millis(5),
          .backoff_max = millis(50)};
}

std::shared_ptr<Item> make_item(Runtime& rt, Timestamp ts, std::size_t bytes = 128) {
  return std::make_shared<Item>(rt.context(), ts, bytes, /*producer=*/100,
                                /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
}

Nanos wall_now() { return RealClock::instance().now(); }

TEST(NetStp, ParkedGetBooksTheServerWaitAsBlocked) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 1}});
  server.start();
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = test_transport(server.port()),
                           .consumer_key = 0});
  std::stop_source stop;

  // Warm the link so the parked get below measures the park, not the dial.
  ASSERT_TRUE(ch.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_NE(proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token()).item,
            nullptr);

  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ch.put(make_item(rt, 1), stop.get_token());
  });
  const Nanos t0 = wall_now();
  const auto res = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  const Nanos wall = wall_now() - t0;
  producer.join();

  ASSERT_NE(res.item, nullptr);
  EXPECT_EQ(res.item->ts(), 1);
  EXPECT_GE(res.blocked, millis(90)) << "the server-side park is blocked time";
  EXPECT_LE(res.blocked, wall);
  server.stop();
}

TEST(NetStp, ReadyGetBooksTheTransferAsService) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server(rt, {{.channel = &ch, .remote_consumers = 1}});
  server.start();
  RemoteChannel proxy(rt, {.name = "frames",
                           .transport = test_transport(server.port()),
                           .consumer_key = 0});
  std::stop_source stop;

  ASSERT_TRUE(ch.put(make_item(rt, 0), stop.get_token()).stored);
  ASSERT_NE(proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token()).item,
            nullptr);

  // Ready before the get is sent: nothing to wait for, so almost the whole
  // call is the 8 MiB crossing the wire.
  ASSERT_TRUE(ch.put(make_item(rt, 1, kBigPayload), stop.get_token()).stored);
  const Nanos t0 = wall_now();
  const auto res = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
  const Nanos wall = wall_now() - t0;

  ASSERT_NE(res.item, nullptr);
  EXPECT_EQ(res.item->bytes(), kBigPayload);
  EXPECT_GE(res.blocked, Nanos{0});
  EXPECT_LT(res.blocked * 10, wall) << "blocked " << res.blocked.count() << " ns of "
                                    << wall.count() << " ns wall";
  server.stop();
}

TEST(NetStp, TaskStpCountsTheTransferButNotTheServerWait) {
  // Serving side: a plain channel fed by a test thread every 50 ms.
  Runtime back;
  Channel& ch = back.add_channel({.name = "frames"});
  ChannelServer server(back, {{.channel = &ch, .remote_consumers = 1}});
  server.start();

  // Consuming side: one task reading over the wire, ARU on so the task
  // records its STP samples.
  Runtime front(RuntimeConfig{.aru = {.mode = aru::Mode::kMin}});
  RemoteChannel proxy(front, {.name = "frames",
                              .transport = test_transport(server.port()),
                              .consumer_key = 0});
  std::atomic<int> got{0};
  std::atomic<Timestamp> last{kNoTimestamp};
  TaskContext& reader = front.add_task({.name = "reader", .body = [&](TaskContext& t) {
                                          auto item = t.get(0);
                                          if (!item) return TaskStatus::kDone;
                                          got.fetch_add(1);
                                          last.store(item->ts());
                                          return TaskStatus::kContinue;
                                        }});
  front.connect(proxy, reader);
  front.start();

  // 1 MiB items: large enough that the copy is measurable, small enough
  // that even a sanitizer build moves one well inside half a period.
  constexpr std::size_t kPayload = std::size_t{1} << 20;
  constexpr int kItems = 10;
  constexpr auto kPeriod = std::chrono::milliseconds(50);
  std::stop_source stop;
  for (Timestamp ts = 0; ts < kItems; ++ts) {
    std::this_thread::sleep_for(kPeriod);
    ch.put(make_item(back, ts, kPayload), stop.get_token());
  }
  // Latest-get guarantees the final item reaches the reader.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (last.load() != kItems - 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  front.stop();
  server.stop();
  ASSERT_EQ(last.load(), kItems - 1);
  ASSERT_GE(got.load(), kItems / 2) << "the reader must keep up with a 50 ms producer";

  // Per iteration, in trace order: kBlocked and kTransfer (the get), then
  // kStp (the periodicity sync after the body). Pair each transfer with
  // the STP sample of its own iteration.
  const stats::Trace trace = front.take_trace();
  std::vector<std::int64_t> blocked, wire, stp;
  std::int64_t pending_wire = -1;
  for (const auto& e : trace.events) {
    if (e.node != reader.id()) continue;
    if (e.type == stats::EventType::kBlocked) blocked.push_back(e.a);
    if (e.type == stats::EventType::kTransfer) {
      EXPECT_EQ(e.b, static_cast<std::int64_t>(kPayload));
      pending_wire = e.a;
    }
    if (e.type == stats::EventType::kStp && pending_wire >= 0) {
      wire.push_back(pending_wire);
      stp.push_back(e.a);
      pending_wire = -1;
    }
  }
  ASSERT_GE(wire.size(), static_cast<std::size_t>(kItems / 2))
      << "every remote get that delivered an item traces its wire time";

  auto median = [](std::vector<std::int64_t> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const std::int64_t period_ns = std::chrono::nanoseconds(kPeriod).count();
  // The ~50 ms park is blocked time ...
  EXPECT_GT(median(blocked), period_ns / 2);
  // ... so the current-STP excludes it but still includes the transfer,
  // which is real time: 1 MiB cannot cross loopback in 20 us (50 GB/s).
  EXPECT_LT(median(stp), period_ns / 2);
  EXPECT_GT(median(wire), 20'000);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_GE(stp[i], wire[i]) << "iteration " << i;
  }
}

// -- a peer reporting garbage --------------------------------------------------

/// A one-connection fake server: acks the Hello, then answers every Get
/// with a one-item reply carrying `waited` verbatim.
class FakeServer {
 public:
  explicit FakeServer(Nanos waited) : waited_(waited) {
    auto listener = TcpListener::listen("127.0.0.1", 0);
    if (!listener) throw std::runtime_error("FakeServer: listen failed");
    port_ = listener->port();
    thread_ = std::jthread([this, l = std::make_shared<TcpListener>(std::move(*listener))](
                               std::stop_token st) { serve(*l, st); });
  }

  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  static bool read_frame(TcpStream& s, FrameHeader& h, std::vector<std::byte>& body) {
    std::array<std::byte, kHeaderBytes> raw;
    if (s.recv_exact(raw, millis(200)) != IoStatus::kOk) return false;
    if (!decode_header(raw, h, nullptr)) return false;
    body.resize(h.body_len);
    return h.body_len == 0 || s.recv_exact(body, seconds(2)) == IoStatus::kOk;
  }

  void serve(TcpListener& listener, const std::stop_token& st) {
    std::optional<TcpStream> s;
    while (!st.stop_requested() && !s) s = listener.accept(millis(50));
    if (!s) return;
    FrameHeader h;
    std::vector<std::byte> body;
    // Next frame, or false once the test is done with this server.
    auto next = [&] {
      while (!read_frame(*s, h, body)) {
        if (st.stop_requested() || s->peer_hup()) return false;
      }
      return true;
    };
    if (!next() || h.type != MsgType::kHello) return;
    if (s->send_all(encode(HelloAckMsg{.ok = true}).span(), seconds(2)) != IoStatus::kOk) {
      return;
    }
    const std::vector<std::byte> payload(64, std::byte{0x5A});
    Timestamp ts = 0;
    while (next()) {
      if (h.type != MsgType::kGet) continue;
      GetReplyMsg reply{.has_item = true, .summary = millis(1), .waited = waited_};
      reply.item.ts = ts++;
      reply.item.payload_bytes = static_cast<std::uint32_t>(payload.size());
      if (s->send_all(encode(reply).span(), seconds(2)) != IoStatus::kOk ||
          s->send_all(payload, seconds(2)) != IoStatus::kOk) {
        return;
      }
    }
  }

  Nanos waited_;
  std::uint16_t port_ = 0;
  std::jthread thread_;
};

TEST(NetStp, GarbageWaitedIsClampedToTheCallsSpan) {
  Runtime rt;
  for (const Nanos waited : {Nanos{-1}, -seconds(3600), seconds(3600)}) {
    FakeServer fake(waited);
    RemoteChannel proxy(rt, {.name = "frames",
                             .transport = test_transport(fake.port()),
                             .consumer_key = 0});
    std::stop_source stop;
    for (int i = 0; i < 2; ++i) {  // the dial, then a warm link
      const Nanos t0 = wall_now();
      const auto res = proxy.get_latest(aru::kUnknownStp, kNoTimestamp, stop.get_token());
      const Nanos wall = wall_now() - t0;
      ASSERT_NE(res.item, nullptr) << "waited=" << waited.count();
      EXPECT_GE(res.blocked, Nanos{0}) << "waited=" << waited.count();
      EXPECT_LE(res.blocked, wall) << "waited=" << waited.count();
    }
  }
}

}  // namespace
}  // namespace stampede::net
