#include "telemetry/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"
#include "telemetry/exporter.hpp"
#include "util/time.hpp"

namespace stampede::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(Counter, SumsAcrossStripes) {
  Registry reg;
  Counter& c = reg.counter("t_total", "test counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriterWins) {
  Registry reg;
  Gauge& g = reg.gauge("t_gauge", "test gauge");
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Histogram, CumulativeBucketsAndOverflow) {
  Registry reg;
  const std::int64_t bounds[] = {10, 100, 1000};
  Histogram& h = reg.histogram("t_hist", "test histogram", bounds);
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (bound is inclusive)
  h.observe(11);    // <= 100
  h.observe(5000);  // +Inf overflow bucket
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.cumulative[0], 2u);  // le=10
  EXPECT_EQ(snap.cumulative[1], 3u);  // le=100
  EXPECT_EQ(snap.cumulative[2], 3u);  // le=1000
  EXPECT_EQ(snap.cumulative[3], 4u);  // +Inf == count
  EXPECT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.sum, 5 + 10 + 11 + 5000);
}

TEST(Registry, RegistrationIsIdempotent) {
  Registry reg;
  Counter& a = reg.counter("dup_total", "same series");
  Counter& b = reg.counter("dup_total", "same series");
  EXPECT_EQ(&a, &b);
  // Distinct labels are a distinct series.
  Counter& c = reg.counter("dup_total", "same series", {{"ch", "frames"}});
  EXPECT_NE(&a, &c);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("kind_clash", "registered as counter");
  EXPECT_THROW(reg.gauge("kind_clash", "now as gauge"), std::logic_error);
}

TEST(Registry, PrometheusRenderCoversAllKinds) {
  Registry reg;
  reg.counter("t_evts_total", "events", {{"ch", "frames"}}).add(3);
  reg.gauge("t_occ", "occupancy").set(12);
  const std::int64_t bounds[] = {10, 100};
  Histogram& h = reg.histogram("t_lat_ns", "latency", bounds);
  h.observe(7);
  h.observe(70);
  reg.polled_counter("t_polled_total", "polled counter", {}, [] { return 5.0; });
  reg.polled_gauge("t_ratio", "polled gauge", {}, [] { return 0.25; });

  const std::string out = reg.render_prometheus();
  EXPECT_NE(out.find("# HELP t_evts_total events"), std::string::npos);
  EXPECT_NE(out.find("# TYPE t_evts_total counter"), std::string::npos);
  EXPECT_NE(out.find("t_evts_total{ch=\"frames\"} 3"), std::string::npos);
  EXPECT_NE(out.find("t_occ 12"), std::string::npos);
  EXPECT_NE(out.find("# TYPE t_lat_ns histogram"), std::string::npos);
  EXPECT_NE(out.find("t_lat_ns_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(out.find("t_lat_ns_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(out.find("t_lat_ns_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(out.find("t_lat_ns_sum 77"), std::string::npos);
  EXPECT_NE(out.find("t_lat_ns_count 2"), std::string::npos);
  EXPECT_NE(out.find("t_polled_total 5"), std::string::npos);
  EXPECT_NE(out.find("t_ratio 0.25"), std::string::npos);
}

TEST(Registry, StatusSectionsRenderAndUnregister) {
  Registry reg;
  const std::uint64_t h = reg.add_status("pipeline", [] { return std::string("{\"n\":3}"); });
  std::string out = reg.render_status();
  EXPECT_NE(out.find("\"pipeline\":{\"n\":3}"), std::string::npos);
  reg.remove_status(h);
  out = reg.render_status();
  EXPECT_EQ(out.find("pipeline"), std::string::npos);
}

TEST(Registry, ExpositionBlocksAppendAndUnregister) {
  Registry reg;
  reg.counter("own_total", "local series").add(1);
  const std::uint64_t h = reg.add_exposition(
      [] { return std::string("fleet_up{node=\"mid\"} 1"); });
  std::string out = reg.render_prometheus();
  // Appended after the registry's own series, newline-terminated even
  // though the callback did not end with one.
  const std::size_t own = out.find("own_total 1\n");
  const std::size_t block = out.find("fleet_up{node=\"mid\"} 1\n");
  EXPECT_NE(own, std::string::npos) << out;
  EXPECT_NE(block, std::string::npos) << out;
  EXPECT_LT(own, block);
  EXPECT_EQ(out.back(), '\n');
  reg.remove_exposition(h);
  out = reg.render_prometheus();
  EXPECT_EQ(out.find("fleet_up"), std::string::npos);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// Concurrency: hammer writers while a reader snapshots (run under TSan in CI)
// ---------------------------------------------------------------------------

TEST(RegistryStress, CountersExactAndMonotoneUnderContention) {
  Registry reg;
  Counter& c = reg.counter("mt_total", "contended counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::uint64_t last = 0;
  bool monotone = true;
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t v = c.value();
      if (v < last) monotone = false;
      last = v;
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(monotone);
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(RegistryStress, HistogramSnapshotsStayCoherent) {
  Registry reg;
  const std::int64_t bounds[] = {8, 64, 512};
  Histogram& h = reg.histogram("mt_hist", "contended histogram", bounds);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const Histogram::Snapshot snap = h.snapshot();
      // The +Inf bucket is the total count, and cumulative counts never
      // decrease across buckets — even mid-write.
      EXPECT_EQ(snap.cumulative[3], snap.count);
      for (int b = 1; b <= 3; ++b) EXPECT_GE(snap.cumulative[b], snap.cumulative[b - 1]);
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.observe((i * 7 + t) % 1024);
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(RegistryStress, RenderWhileWritersRun) {
  Registry reg;
  Counter& c = reg.counter("rw_total", "counter", {{"ch", "a"}});
  Gauge& g = reg.gauge("rw_gauge", "gauge");
  std::atomic<bool> done{false};
  std::thread writer([&] {
    std::int64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      c.add();
      g.set(++i);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::string out = reg.render_prometheus();
    EXPECT_NE(out.find("rw_total"), std::string::npos);
  }
  done.store(true, std::memory_order_release);
  writer.join();
}

// ---------------------------------------------------------------------------
// Exporter loopback
// ---------------------------------------------------------------------------

TEST(Exporter, ServesMetricsStatusAndHealth) {
  Registry reg;
  reg.counter("exp_total", "exported counter", {{"ch", "frames"}}).add(9);
  reg.add_status("answer", [] { return std::string("42"); });

  Exporter exp(reg, {});
  exp.start();
  ASSERT_GT(exp.port(), 0);

  const auto metrics = http_get("127.0.0.1", exp.port(), "/metrics", seconds(5));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("exp_total{ch=\"frames\"} 9"), std::string::npos);

  const auto status = http_get("127.0.0.1", exp.port(), "/status", seconds(5));
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"answer\":42"), std::string::npos);

  const auto health = http_get("127.0.0.1", exp.port(), "/healthz", seconds(5));
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->find("ok"), std::string::npos);

  // Unknown paths are a 404, surfaced as an empty optional by http_get.
  EXPECT_FALSE(http_get("127.0.0.1", exp.port(), "/nope", seconds(5)).has_value());

  exp.stop();
  exp.stop();  // idempotent
}

TEST(Exporter, SerialScrapesOnOneEndpoint) {
  Registry reg;
  Counter& c = reg.counter("scrape_total", "scrapes observed");
  Exporter exp(reg, {});
  exp.start();
  for (int i = 1; i <= 5; ++i) {
    c.add();
    const auto body = http_get("127.0.0.1", exp.port(), "/metrics", seconds(5));
    ASSERT_TRUE(body.has_value());
    EXPECT_NE(body->find("scrape_total " + std::to_string(i)), std::string::npos);
  }
  exp.stop();
}

// ---------------------------------------------------------------------------
// Runtime integration: a live pipeline served over metrics_port=0
// ---------------------------------------------------------------------------

TEST(RuntimeTelemetry, LivePipelineExposesBuiltinSeries) {
  RuntimeConfig cfg;
  cfg.aru.mode = aru::Mode::kMin;
  cfg.metrics_port = 0;
  Runtime rt(cfg);
  Channel& ch = rt.add_channel({.name = "frames"});
  TaskContext& src = rt.add_task({.name = "src", .body = [](TaskContext& ctx) {
                                    ctx.compute(millis(1));
                                    auto item = ctx.make_item(ctx.now().count(), 1024, {});
                                    ctx.put(0, item);
                                    return TaskStatus::kContinue;
                                  }});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    if (!in) return TaskStatus::kDone;
                                    ctx.compute(millis(2));
                                    ctx.emit(*in);
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  const std::uint16_t port = rt.metrics_port();
  ASSERT_GT(port, 0);
  ASSERT_TRUE(rt.wait_emits(20, seconds(30)));

  const auto body = http_get("127.0.0.1", port, "/metrics", seconds(5));
  ASSERT_TRUE(body.has_value());
  for (const char* series :
       {"aru_channel_puts_total", "aru_channel_occupancy", "aru_channel_summary_stp_ns",
        "aru_task_summary_stp_ns", "aru_memory_total_bytes"}) {
    EXPECT_NE(body->find(series), std::string::npos) << "missing series: " << series;
  }
  // The pipeline has flowed, so the channel counted puts.
  EXPECT_NE(body->find("aru_channel_puts_total{channel=\"frames\"}"), std::string::npos);

  const auto status = http_get("127.0.0.1", port, "/status", seconds(5));
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("\"channels\""), std::string::npos);
  EXPECT_NE(status->find("\"frames\""), std::string::npos);

  rt.stop();
  // Stopped runtime no longer serves (the listener is closed).
  EXPECT_EQ(rt.metrics_port(), 0);
  EXPECT_FALSE(http_get("127.0.0.1", port, "/healthz", millis(500)).has_value());
}

TEST(RuntimeTelemetry, DisabledByDefault) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = [](TaskContext& ctx) {
                                    auto item = ctx.make_item(0, 64, {});
                                    ctx.put(0, item);
                                    return TaskStatus::kDone;
                                  }});
  rt.connect(src, ch);
  rt.start();
  EXPECT_EQ(rt.metrics_port(), 0);
  rt.stop();
  // The registry still collected even with no endpoint.
  EXPECT_NE(rt.metrics().render_prometheus().find("aru_channel_puts_total"),
            std::string::npos);
}

}  // namespace
}  // namespace stampede::telemetry
