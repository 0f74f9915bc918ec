/// \file exporter.hpp
/// \brief In-process HTTP/1.0 exposition endpoint for telemetry::Registry.
///
/// A deliberately tiny text server on the existing net::TcpListener /
/// net::TcpStream wrappers (nonblocking, deadline-bounded — a wedged
/// scraper cannot hang the exporter thread):
///
///   GET /metrics  -> Prometheus text exposition format 0.0.4
///   GET /status   -> JSON introspection snapshot (channels, memory, links)
///   GET /healthz  -> 200 "ok"
///
/// One `std::jthread` accepts and serves connections sequentially — a
/// scrape every few seconds from one or two collectors, not a web
/// server. Responses are `Connection: close`; each request is one
/// bounded read, one render under the registry mutex (LockRank
/// kTelemetry), one send.
///
/// HTTP parsing lives here and only here: using `parse_http_request` /
/// `HttpRequest` outside src/telemetry/ is banned by aru-analyze's
/// `telemetry-http` lint rule so ad-hoc HTTP handling cannot creep into
/// other subsystems.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "net/socket.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace stampede::telemetry {

class Registry;

/// A parsed request line. Only the fields the exporter routes on.
struct HttpRequest {
  std::string method;
  std::string path;
};

/// Parses the request head (start line; headers are ignored). Returns
/// false on anything that is not `METHOD SP PATH SP HTTP/x.y`.
bool parse_http_request(std::string_view head, HttpRequest& out);

struct ExporterConfig {
  std::string host = "127.0.0.1";  ///< bind address (dotted quad)
  std::uint16_t port = 0;          ///< 0 = ephemeral, read back via port()
  Nanos io_timeout = millis(500);  ///< per-request read/write deadline
};

/// Serves a Registry over loopback (or a configured interface).
class Exporter {
 public:
  Exporter(Registry& registry, ExporterConfig config);
  ~Exporter();

  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Binds the listener and starts the serve thread. Throws
  /// std::runtime_error if the bind fails (port in use, bad host).
  /// Idempotent under the exporter mutex.
  ARU_MAY_BLOCK void start();

  /// Stops the serve thread and closes the listener. Idempotent.
  ARU_MAY_BLOCK void stop();

  /// The bound port (the ephemeral one when config.port was 0). Valid
  /// after start(); 0 before.
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }

 private:
  void serve(const std::stop_token& st, net::TcpListener listener);
  void handle(net::TcpStream conn);

  Registry& registry_;
  ExporterConfig config_;
  std::atomic<std::uint16_t> port_{0};
  util::Mutex mu_{util::LockRank::kTelemetry, "telemetry::Exporter"};
  std::jthread thread_ GUARDED_BY(mu_);
};

/// Minimal HTTP/1.0 GET for tests and smoke checks: fetches
/// `http://host:port/path` and returns the response body on a 200, or
/// an empty optional on connect/IO failure or any other status.
ARU_MAY_BLOCK ARU_ALLOCATES std::optional<std::string> http_get(
    const std::string& host, std::uint16_t port, const std::string& path,
    Nanos timeout);

}  // namespace stampede::telemetry
