/// \file test_socket.cpp
/// \brief The same-host link: a listener on host:port also owns the Unix
///        name `@stampede:<host>:<port>`, a connect tries that name first
///        and falls back to TCP only when nothing listens there.
///
/// Covers both kinds of link end to end (a RemoteChannel against a real
/// ChannelServer, and `/metrics` through http_get), the fallback to a TCP
/// listener that owns no Unix name, a squatted name on either side (a
/// server's, and one held by another user), and the socket
/// semantics both kinds must share.
#include <array>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/remote_channel.hpp"
#include "net/socket.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/registry.hpp"

namespace stampede::net {
namespace {

TransportConfig fast_transport(std::uint16_t port) {
  return {.port = port,
          .connect_timeout = millis(200),
          .io_timeout = millis(500),
          .backoff_initial = millis(5),
          .backoff_max = millis(50)};
}

constexpr std::size_t kPayload = std::size_t{256} << 10;

/// An item whose payload is a pattern of its timestamp.
std::shared_ptr<Item> pattern_item(Runtime& rt, Timestamp ts) {
  auto item = std::make_shared<Item>(rt.context(), ts, kPayload, /*producer=*/100,
                                     /*cluster_node=*/0, std::vector<ItemId>{}, Nanos{0});
  const auto data = item->mutable_data();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::byte(static_cast<unsigned>(i * 7 + static_cast<std::size_t>(ts)));
  }
  return item;
}

bool has_pattern(const Item& item) {
  const auto data = item.data();
  if (data.size() != kPayload) return false;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != std::byte(static_cast<unsigned>(i * 7 + static_cast<std::size_t>(item.ts())))) {
      return false;
    }
  }
  return true;
}

/// A plain AF_INET listener on 127.0.0.1 that owns no Unix name: what a
/// peer on another host, or in another network namespace, looks like.
class RawTcpListener {
 public:
  RawTcpListener() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (fd_ < 0 || ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), len) != 0 ||
        ::listen(fd_, 16) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ADD_FAILURE() << "raw listener: " << std::strerror(errno);
      return;
    }
    port_ = ntohs(addr.sin_port);
  }
  ~RawTcpListener() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawTcpListener(const RawTcpListener&) = delete;
  RawTcpListener& operator=(const RawTcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Waits up to `timeout` for one connection; invalid if none came.
  TcpStream accept(Nanos timeout) const {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(timeout.count() / 1'000'000)) <= 0) return {};
    Socket conn(::accept(fd_, nullptr, nullptr));
    if (!conn.valid() || !nonblocking(conn.fd())) return {};
    return TcpStream(std::move(conn));
  }

  static bool nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Forwards each connection made to a raw TCP port on to a server's port,
/// so the server is reachable over TCP only.
class TcpOnlyRelay {
 public:
  explicit TcpOnlyRelay(std::uint16_t upstream)
      : acceptor_([this, upstream](const std::stop_token& st) {
          while (!st.stop_requested()) {
            TcpStream down = listener_.accept(millis(20));
            if (!down.valid()) continue;
            std::optional<TcpStream> up = TcpStream::connect("127.0.0.1", upstream, seconds(2));
            if (!up) continue;
            pumps_.emplace_back(pump, down.duplicate(), up->duplicate());
            pumps_.emplace_back(pump, std::move(*up), std::move(down));
          }
        }) {}
  TcpOnlyRelay(const TcpOnlyRelay&) = delete;
  TcpOnlyRelay& operator=(const TcpOnlyRelay&) = delete;

  std::uint16_t port() const { return listener_.port(); }

 private:
  static void pump(const std::stop_token& st, TcpStream from, TcpStream to) {
    std::array<std::byte, 16 * 1024> buf{};
    while (!st.stop_requested()) {
      std::size_t n = 0;
      const IoStatus got = from.recv_some(buf, &n, millis(20));
      if (got == IoStatus::kTimeout) continue;
      if (got != IoStatus::kOk ||
          to.send_all(std::span(buf.data(), n), seconds(2)) != IoStatus::kOk) {
        return;
      }
    }
  }

  RawTcpListener listener_;
  std::vector<std::jthread> pumps_;  // touched only by the acceptor
  std::jthread acceptor_;            // last: stopped and joined first
};

/// A server with one channel that takes one remote producer and one
/// remote consumer.
struct Served {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "frames"});
  ChannelServer server{rt, {{.channel = &ch, .remote_producers = 1,
                             .remote_consumers = 1}}};
  Served() { server.start(); }
  ~Served() { server.stop(); }
};

/// Through `port` to `srv`: remote puts read back by remote gets, and
/// items put on the server's side read back as lent views of its arena.
void round_trip(Served& srv, std::uint16_t port, bool want_local) {
  Runtime client;
  RemoteChannel producer(client, {.name = "frames",
                                  .transport = fast_transport(port),
                                  .producer_key = 0});
  RemoteChannel consumer(client, {.name = "frames",
                                  .transport = fast_transport(port),
                                  .consumer_key = 0});
  std::stop_source stop;
  for (Timestamp ts = 0; ts < 20; ++ts) {
    const bool remote_put = ts % 2 == 0;
    if (remote_put) {
      ASSERT_TRUE(producer.put(pattern_item(client, ts), stop.get_token()).stored);
      ASSERT_TRUE(producer.drain_puts(stop.get_token()));
    } else {
      srv.ch.put(pattern_item(srv.rt, ts), {});
    }
    const auto got = consumer.get_latest(millis(1), kNoTimestamp, stop.get_token()).item;
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->ts(), ts);
    EXPECT_TRUE(has_pattern(*got)) << "ts " << ts;
    if (!remote_put) {
      EXPECT_EQ(got->charged_bytes(), 0u) << "ts " << ts << " must arrive as a lent view";
    }
  }
  EXPECT_TRUE(producer.connected());
  EXPECT_TRUE(consumer.connected());
  EXPECT_EQ(producer.local(), want_local);
  EXPECT_EQ(consumer.local(), want_local);
  EXPECT_EQ(producer.reconnects() + consumer.reconnects(), 0);
  client.stop();
}

/// The Unix name a listener on 127.0.0.1:`port` owns.
struct UnixName {
  sockaddr_un addr{};
  socklen_t len = 0;

  explicit UnixName(std::uint16_t port) {
    const std::string name = "@stampede:127.0.0.1:" + std::to_string(port);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path + 1, name.data() + 1, name.size() - 1);
    len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + name.size());
  }
  int bind(int fd) const { return ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), len); }
};

/// Each side sends a few bytes and reads the other's.
void exchange(TcpStream& a, TcpStream& b) {
  const std::array<std::byte, 3> ping{std::byte{1}, std::byte{2}, std::byte{3}};
  std::array<std::byte, 3> got{};
  ASSERT_EQ(a.send_all(ping, seconds(2)), IoStatus::kOk);
  ASSERT_EQ(b.recv_exact(got, seconds(2)), IoStatus::kOk);
  EXPECT_EQ(got, ping);
  ASSERT_EQ(b.send_all(ping, seconds(2)), IoStatus::kOk);
  ASSERT_EQ(a.recv_exact(got, seconds(2)), IoStatus::kOk);
  EXPECT_EQ(got, ping);
}

TEST(SameHostLink, RemoteChannelConnectsOverTheUnixName) {
  // Puts and gets to a server on this host ride the Unix name, and lent
  // replies still map the lender's arena across it.
  Served srv;
  round_trip(srv, srv.server.port(), /*want_local=*/true);
}

TEST(SameHostLink, ListenerWithoutAUnixNameIsReachedOverTcp) {
  // The same server behind a TCP-only port: a put and a get round-trip
  // over TCP, with the arena handoff as over the Unix name.
  Served srv;
  TcpOnlyRelay relay(srv.server.port());
  round_trip(srv, relay.port(), /*want_local=*/false);
}

TEST(SameHostLink, ListenerAcceptsUnixAndTcpPeers) {
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());

  auto unix_client = TcpStream::connect("127.0.0.1", listener->port(), seconds(2));
  ASSERT_TRUE(unix_client.has_value());
  EXPECT_TRUE(unix_client->local());

  // A TCP peer, as one on another host would dial.
  Socket raw(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(raw.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(raw.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  ASSERT_TRUE(RawTcpListener::nonblocking(raw.fd()));
  TcpStream tcp_client(std::move(raw));
  EXPECT_FALSE(tcp_client.local());

  std::optional<TcpStream> first = listener->accept(seconds(2));
  std::optional<TcpStream> second = listener->accept(seconds(2));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(first->local(), second->local()) << "one peer of each kind";
  TcpStream& unix_server = first->local() ? *first : *second;
  TcpStream& tcp_server = first->local() ? *second : *first;
  exchange(*unix_client, unix_server);
  exchange(tcp_client, tcp_server);

  EXPECT_FALSE(listener->accept(millis(20)).has_value());
  listener->close();
  EXPECT_FALSE(TcpStream::connect("127.0.0.1", listener->port(), millis(200)).has_value())
      << "a closed listener answers on neither socket";
}

TEST(SameHostLink, ListenFailsWhenTheUnixNameIsTaken) {
  std::uint16_t port = 0;
  {
    auto probe = TcpListener::listen(0);
    ASSERT_TRUE(probe.has_value());
    port = probe->port();
  }
  // Another socket holds the name first: the server must not start, just
  // as on a taken port, and must leave its TCP port free again.
  Socket squatter(::socket(AF_UNIX, SOCK_STREAM, 0));
  ASSERT_TRUE(squatter.valid());
  ASSERT_EQ(UnixName(port).bind(squatter.fd()), 0) << std::strerror(errno);

  std::string err;
  EXPECT_FALSE(TcpListener::listen(port, &err).has_value());
  EXPECT_NE(err.find("@stampede:127.0.0.1:" + std::to_string(port)), std::string::npos)
      << err;

  squatter.reset();
  auto listener = TcpListener::listen(port, &err);
  ASSERT_TRUE(listener.has_value()) << err;
  auto stream = TcpStream::connect("127.0.0.1", port, seconds(2));
  ASSERT_TRUE(stream.has_value());
  EXPECT_TRUE(stream->local());
}

TEST(SameHostLink, NameHeldByAnotherUserIsPassedOverForTcp) {
  // An abstract name has no permissions: another user's process can
  // listen on the name of a port it does not own (a remote host's, or
  // 127.0.0.1's beside a wildcard listener). A connect must not take that
  // link, and reaches the real listener over TCP instead.
  if (::geteuid() != 0) GTEST_SKIP() << "holding a name as another user needs root";
  RawTcpListener raw;
  const UnixName name(raw.port());
  std::array<int, 2> ready{-1, -1};
  std::array<int, 2> done{-1, -1};
  ASSERT_EQ(::pipe(ready.data()), 0);
  ASSERT_EQ(::pipe(done.data()), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << std::strerror(errno);
  if (child == 0) {
    // The squatter, as user and group "nobody"; it holds the name until
    // the parent closes `done`. Only async-signal-safe calls from here.
    ::close(ready[0]);
    ::close(done[1]);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool ok = ::setgid(65534) == 0 && ::setuid(65534) == 0 && fd >= 0 &&
                    name.bind(fd) == 0 && ::listen(fd, 16) == 0;
    const char held = ok ? 1 : 0;
    char byte = 0;
    if (::write(ready[1], &held, 1) == 1) (void)!::read(done[0], &byte, 1);
    ::_exit(0);
  }
  ::close(ready[1]);
  ::close(done[0]);
  char held = 0;
  const bool squatted = ::read(ready[0], &held, 1) == 1 && held == 1;
  ::close(ready[0]);

  std::string err;
  auto stream = TcpStream::connect("127.0.0.1", raw.port(), seconds(2), &err);
  TcpStream peer = raw.accept(seconds(2));
  ::close(done[1]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(squatted) << "the squatter could not hold the name";
  ASSERT_TRUE(stream.has_value()) << err;
  EXPECT_FALSE(stream->local()) << "a name held by another user is passed over";
  ASSERT_TRUE(peer.valid()) << "the real listener is reached over TCP";
  exchange(*stream, peer);
}

TEST(SameHostLink, MetricsAreScrapedThroughHttpGet) {
  telemetry::Registry reg;
  reg.counter("scraped_total", "scrape check", {}).add(3);
  telemetry::Exporter exporter(reg, {});
  exporter.start();
  ASSERT_GT(exporter.port(), 0);
  {
    auto stream = TcpStream::connect("127.0.0.1", exporter.port(), seconds(2));
    ASSERT_TRUE(stream.has_value());
    EXPECT_TRUE(stream->local()) << "the exporter is reached over its Unix name";
  }
  const auto metrics =
      telemetry::http_get("127.0.0.1", exporter.port(), "/metrics", seconds(5));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("scraped_total 3"), std::string::npos) << *metrics;
  exporter.stop();
}

TEST(SameHostLink, PeerHupWaitsForWhatThePeerSentBeforeItLeft) {
  // A Unix stream reports POLLHUP as soon as its peer closes, TCP only
  // the FIN: on both, a hang-up counts once the bytes sent before it are
  // read, so a server never drops what a departing peer sent.
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.has_value());
  RawTcpListener raw;
  for (const bool local : {true, false}) {
    SCOPED_TRACE(local ? "unix" : "tcp");
    const std::uint16_t port = local ? listener->port() : raw.port();
    auto client = TcpStream::connect("127.0.0.1", port, seconds(2));
    ASSERT_TRUE(client.has_value());
    ASSERT_EQ(client->local(), local);
    std::optional<TcpStream> server =
        local ? listener->accept(seconds(2)) : std::optional(raw.accept(seconds(2)));
    ASSERT_TRUE(server.has_value() && server->valid());

    const std::array<std::byte, 3> bytes{std::byte{7}, std::byte{8}, std::byte{9}};
    ASSERT_EQ(client->send_all(bytes, seconds(2)), IoStatus::kOk);
    client->close();
    ASSERT_TRUE(server->readable(seconds(2)));
    EXPECT_FALSE(server->peer_hup()) << "unread bytes come before the hang-up";
    std::array<std::byte, 3> got{};
    ASSERT_EQ(server->recv_exact(got, seconds(2)), IoStatus::kOk);
    EXPECT_EQ(got, bytes);
    bool hup = false;
    for (int i = 0; i < 200 && !hup; ++i) {
      hup = server->peer_hup();
      if (!hup) std::this_thread::sleep_for(millis(5));
    }
    EXPECT_TRUE(hup);
  }
}

}  // namespace
}  // namespace stampede::net
