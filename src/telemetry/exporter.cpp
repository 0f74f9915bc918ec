#include "telemetry/exporter.hpp"

#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "telemetry/registry.hpp"
#include "util/thread_name.hpp"

namespace stampede::telemetry {
namespace {

/// Upper bound on a request head we are willing to buffer. A scrape
/// request line is tens of bytes; anything past this is not a scraper.
constexpr std::size_t kMaxRequestBytes = 4096;

/// Accept-poll slice: how often the serve loop re-checks its stop token.
constexpr Nanos kAcceptSlice = millis(50);

std::string make_response(int status, const char* reason, const char* content_type,
                          std::string_view body) {
  std::string out = "HTTP/1.0 ";
  out += std::to_string(status);
  out += ' ';
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

/// Reads until the blank line ending the request head, a size cap, EOF,
/// or the deadline. Returns the bytes read so far (head + any spillover)
/// or an empty optional on timeout/error before the head completed.
std::optional<std::string> read_request_head(net::TcpStream& conn, Nanos timeout) {
  std::string buf;
  std::byte chunk[1024];
  while (buf.size() < kMaxRequestBytes) {
    if (buf.find("\r\n\r\n") != std::string::npos) return buf;
    std::size_t n = 0;
    const net::IoStatus st = conn.recv_some(chunk, &n, timeout);
    if (st == net::IoStatus::kClosed) return buf;  // head may still parse
    if (st != net::IoStatus::kOk) return std::nullopt;
    buf.append(reinterpret_cast<const char*>(chunk), n);
  }
  return buf;
}

}  // namespace

bool parse_http_request(std::string_view head, HttpRequest& out) {
  const std::size_t eol = head.find("\r\n");
  std::string_view line = eol == std::string_view::npos ? head : head.substr(0, eol);
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || sp1 == 0) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos || sp2 == sp1 + 1) return false;
  const std::string_view version = line.substr(sp2 + 1);
  if (!version.starts_with("HTTP/")) return false;
  out.method = std::string(line.substr(0, sp1));
  out.path = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  return true;
}

Exporter::Exporter(Registry& registry, ExporterConfig config)
    : registry_(registry), config_(std::move(config)) {}

Exporter::~Exporter() { stop(); }

void Exporter::start() {
  util::MutexLock lock(mu_);
  if (thread_.joinable()) return;
  std::string err;
  std::optional<net::TcpListener> listener =
      net::TcpListener::listen(config_.host, config_.port, &err);
  if (!listener) {
    throw std::runtime_error("telemetry: cannot bind exporter on " + config_.host +
                             ":" + std::to_string(config_.port) + ": " + err);
  }
  port_.store(listener->port(), std::memory_order_release);
  thread_ = std::jthread([this, l = std::move(*listener)](std::stop_token st) mutable {
    util::set_thread_name("exporter");
    serve(st, std::move(l));
  });
}

void Exporter::stop() {
  util::MutexLock lock(mu_);
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
  thread_ = std::jthread();
  port_.store(0, std::memory_order_release);
}

void Exporter::serve(const std::stop_token& st, net::TcpListener listener) {
  while (!st.stop_requested()) {
    std::optional<net::TcpStream> conn = listener.accept(kAcceptSlice);
    if (!conn) continue;
    handle(std::move(*conn));
  }
  listener.close();
}

void Exporter::handle(net::TcpStream conn) {
  const std::optional<std::string> head = read_request_head(conn, config_.io_timeout);
  std::string response;
  HttpRequest req;
  if (!head || !parse_http_request(*head, req)) {
    response = make_response(400, "Bad Request", "text/plain", "bad request\n");
  } else if (req.method != "GET") {
    response = make_response(405, "Method Not Allowed", "text/plain",
                             "only GET is supported\n");
  } else if (req.path == "/metrics") {
    response = make_response(200, "OK",
                             "text/plain; version=0.0.4; charset=utf-8",
                             registry_.render_prometheus());
  } else if (req.path == "/status") {
    response = make_response(200, "OK", "application/json",
                             registry_.render_status());
  } else if (req.path == "/healthz") {
    response = make_response(200, "OK", "text/plain", "ok\n");
  } else {
    response = make_response(404, "Not Found", "text/plain",
                             "try /metrics, /status or /healthz\n");
  }
  conn.send_all(std::as_bytes(std::span(response.data(), response.size())),
                config_.io_timeout);
  conn.close();
}

std::optional<std::string> http_get(const std::string& host, std::uint16_t port,
                                    const std::string& path, Nanos timeout) {
  std::optional<net::TcpStream> conn = net::TcpStream::connect(host, port, timeout);
  if (!conn) return std::nullopt;
  const std::string request = "GET " + path + " HTTP/1.0\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  if (conn->send_all(std::as_bytes(std::span(request.data(), request.size())),
                     timeout) != net::IoStatus::kOk) {
    return std::nullopt;
  }
  std::string response;
  std::byte chunk[4096];
  for (;;) {
    std::size_t n = 0;
    const net::IoStatus st = conn->recv_some(chunk, &n, timeout);
    if (st == net::IoStatus::kClosed) break;
    if (st != net::IoStatus::kOk) return std::nullopt;
    response.append(reinterpret_cast<const char*>(chunk), n);
  }
  // HTTP/1.0 200 <reason>\r\n ... \r\n\r\n <body>
  const std::size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos) return std::nullopt;
  const std::string_view status_line(response.data(), line_end);
  if (status_line.find(" 200 ") == std::string_view::npos) return std::nullopt;
  const std::size_t body_at = response.find("\r\n\r\n");
  if (body_at == std::string::npos) return std::nullopt;
  return response.substr(body_at + 4);
}

}  // namespace stampede::telemetry
