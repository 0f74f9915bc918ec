/// \file test_task_api.cpp
/// \brief TaskContext surface: access modes from tasks, release_until,
///        compute accounting/dilation, monitor gauges, error paths.
#include <map>

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"

namespace stampede {
namespace {

TaskBody counting_source(std::shared_ptr<std::atomic<Timestamp>> produced,
                         Nanos cost = millis(1), std::size_t bytes = 1024) {
  return [=](TaskContext& ctx) {
    ctx.compute(cost);
    const Timestamp ts = produced->fetch_add(1);
    ctx.put(0, ctx.make_item(ts, bytes, {}));
    return TaskStatus::kContinue;
  };
}

TEST(TaskApi, GetNextSeesEveryItemInOrder) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  auto produced = std::make_shared<std::atomic<Timestamp>>(0);
  auto seen = std::make_shared<std::vector<Timestamp>>();
  TaskContext& src = rt.add_task({.name = "src", .body = counting_source(produced)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [seen](TaskContext& ctx) {
                                    auto in = ctx.get_next(0);
                                    if (!in) return TaskStatus::kDone;
                                    seen->push_back(in->ts());
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(250));
  rt.stop();

  ASSERT_GT(seen->size(), 20u);
  for (std::size_t i = 0; i < seen->size(); ++i) {
    EXPECT_EQ((*seen)[i], static_cast<Timestamp>(i));  // no skips, in order
  }
}

TEST(TaskApi, GetWindowFromTask) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  auto produced = std::make_shared<std::atomic<Timestamp>>(0);
  auto max_window = std::make_shared<std::atomic<std::size_t>>(0);
  TaskContext& src = rt.add_task({.name = "src", .body = counting_source(produced)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [max_window](TaskContext& ctx) {
                                    const auto window = ctx.get_window(0, 3);
                                    if (window.empty()) return TaskStatus::kDone;
                                    // Ascending timestamps inside the window.
                                    for (std::size_t i = 1; i < window.size(); ++i) {
                                      EXPECT_LT(window[i - 1]->ts(), window[i]->ts());
                                    }
                                    std::size_t cur = max_window->load();
                                    while (window.size() > cur &&
                                           !max_window->compare_exchange_weak(cur, window.size())) {
                                    }
                                    ctx.compute(millis(4));
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(300));
  rt.stop();
  EXPECT_EQ(max_window->load(), 3u);
}

TEST(TaskApi, GetAtAndReleaseUntil) {
  Runtime rt;
  Channel& frames = rt.add_channel({.name = "frames"});
  Channel& hints = rt.add_channel({.name = "hints"});
  auto produced = std::make_shared<std::atomic<Timestamp>>(0);
  auto refetched = std::make_shared<std::atomic<int>>(0);

  // Source publishes frames AND hint records referencing them.
  TaskContext& src = rt.add_task({.name = "src", .body = [produced](TaskContext& ctx) {
                                    ctx.compute(millis(1));
                                    const Timestamp ts = produced->fetch_add(1);
                                    ctx.put(0, ctx.make_item(ts, 2048, {}));
                                    ctx.put(1, ctx.make_item(ts, 16, {}));
                                    return TaskStatus::kContinue;
                                  }});
  // Consumer follows hints, random-accesses the matching frame, and
  // releases older frames.
  TaskContext& snk = rt.add_task({.name = "snk", .body = [refetched](TaskContext& ctx) {
                                    auto hint = ctx.get(0);
                                    if (!hint) return TaskStatus::kDone;
                                    auto frame = ctx.get_at(1, hint->ts());
                                    ctx.release_until(1, hint->ts());
                                    if (frame) {
                                      EXPECT_EQ(frame->ts(), hint->ts());
                                      refetched->fetch_add(1);
                                    }
                                    ctx.compute(millis(3));
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, frames);
  rt.connect(src, hints);
  rt.connect(hints, snk);   // input 0
  rt.connect(frames, snk);  // input 1 (random access)
  rt.start();
  rt.clock().sleep_for(millis(300));
  const std::size_t frames_stored = frames.size();
  rt.stop();

  EXPECT_GT(refetched->load(), 10);
  // release_until keeps the random-access channel bounded.
  EXPECT_LT(frames_stored, 30u);
}

TEST(TaskApi, ComputeDilationInflatesCost) {
  RuntimeConfig cfg;
  cfg.pressure.compute_dilation_per_mb = 1.0;  // +100% per resident MB
  Runtime rt(cfg);
  Channel& ch = rt.add_channel({.name = "ch"});
  auto elapsed = std::make_shared<std::atomic<std::int64_t>>(0);
  // One task allocates 4 MB then computes 20 ms: dilation ~5x.
  TaskContext& t = rt.add_task({.name = "t", .body = [elapsed](TaskContext& ctx) {
                                  auto big = ctx.make_item(0, 4 * 1024 * 1024, {});
                                  const Nanos t0 = ctx.now();
                                  ctx.compute(millis(20));
                                  elapsed->store((ctx.now() - t0).count());
                                  ctx.put(0, big);
                                  return TaskStatus::kDone;
                                }});
  rt.connect(t, ch);
  rt.start();
  rt.clock().sleep_for(millis(250));
  rt.stop();
  EXPECT_GE(elapsed->load(), millis(90).count());  // ~5x 20ms
}

TEST(TaskApi, MonitorRecordsGauges) {
  RuntimeConfig cfg;
  cfg.monitor_period = millis(10);
  Runtime rt(cfg);
  Channel& ch = rt.add_channel({.name = "ch"});
  auto produced = std::make_shared<std::atomic<Timestamp>>(0);
  TaskContext& src = rt.add_task({.name = "src", .body = counting_source(produced)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    return in ? TaskStatus::kContinue : TaskStatus::kDone;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(200));
  rt.stop();
  const NodeId ch_id = ch.id();  // channels are destroyed by take_trace()
  const auto trace = rt.take_trace();
  const stats::Analyzer analyzer(trace);

  const auto channel_gauges = analyzer.gauge_series(ch_id);
  const auto global_gauges = analyzer.gauge_series(kNoNode);
  EXPECT_GE(channel_gauges.size(), 5u);
  EXPECT_GE(global_gauges.size(), 5u);
  // Peak gauge must never be below the concurrent total.
  for (const auto& g : global_gauges) EXPECT_GE(g.aux, g.value);
}

TEST(TaskApi, ErrorPathsThrow) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  Queue& q = rt.add_queue({.name = "q"});
  auto body = [](TaskContext& ctx) {
    EXPECT_THROW(ctx.get(5), std::out_of_range);
    EXPECT_THROW(ctx.get_next(9), std::out_of_range);
    EXPECT_THROW(ctx.put(7, ctx.make_item(0, 8, {})), std::out_of_range);
    EXPECT_THROW(ctx.put(0, nullptr), std::invalid_argument);
    EXPECT_THROW(ctx.release_until(5, 0), std::out_of_range);
    // Queue input: channel-only modes must be rejected.
    EXPECT_THROW(ctx.get_next(1), std::logic_error);
    EXPECT_THROW(ctx.get_at(1, 0), std::logic_error);
    EXPECT_THROW(ctx.get_window(1, 2), std::logic_error);
    EXPECT_THROW(ctx.release_until(1, 0), std::logic_error);
    return TaskStatus::kDone;
  };
  TaskContext& t = rt.add_task({.name = "t", .body = body});
  TaskContext& filler = rt.add_task({.name = "filler", .body = [](TaskContext& ctx) {
                                       ctx.put(0, ctx.make_item(0, 8, {}));
                                       ctx.put(1, ctx.make_item(0, 8, {}));
                                       return TaskStatus::kDone;
                                     }});
  rt.connect(filler, ch);
  rt.connect(filler, q);
  rt.connect(ch, t);  // input 0: channel
  rt.connect(q, t);   // input 1: queue
  rt.start();
  rt.clock().sleep_for(millis(80));
  rt.stop();
}

TEST(TaskApi, SchedulerNoiseStretchesSomeIterations) {
  // Counts iterations whose measured STP spiked above 10 ms (base cost is
  // 2 ms) — robust against background load on the host, unlike comparing
  // maxima.
  auto spikes_under = [](SchedulerNoise noise) {
    RuntimeConfig cfg;
    cfg.aru.mode = aru::Mode::kMin;
    cfg.sched_noise = noise;
    cfg.seed = 11;
    Runtime rt(cfg);
    Channel& ch = rt.add_channel({.name = "ch"});
    TaskContext& src = rt.add_task({.name = "src", .body = [](TaskContext& ctx) {
                                      static thread_local Timestamp ts = 0;
                                      ctx.compute(millis(2));
                                      ctx.put(0, ctx.make_item(ts++, 64, {}));
                                      return TaskStatus::kContinue;
                                    }});
    TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                      auto in = ctx.get(0);
                                      return in ? TaskStatus::kContinue : TaskStatus::kDone;
                                    }});
    rt.connect(src, ch);
    rt.connect(ch, snk);
    rt.start();
    rt.clock().sleep_for(millis(400));
    rt.stop();
    const auto trace = rt.take_trace();
    std::int64_t spikes = 0;
    for (const auto& e : trace.events) {
      if (e.type == stats::EventType::kStp && e.node == src.id() &&
          e.a > millis(10).count()) {
        ++spikes;
      }
    }
    return spikes;
  };
  const std::int64_t clean = spikes_under({});
  const std::int64_t noisy = spikes_under({.preempt_prob = 0.3, .slice_mean = millis(15)});
  // Preemption bursts must produce the paper's "intermittent large
  // summary-STP values" on a meaningful fraction of iterations; the clean
  // run may spike occasionally from real host jitter, but far less often.
  EXPECT_GE(noisy, 10);
  EXPECT_GT(noisy, clean * 3);
}

TEST(TaskApi, AccountComputeCountsWithoutSleeping) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& t = rt.add_task({.name = "t", .body = [](TaskContext& ctx) {
                                  ctx.account_compute(millis(500));  // no wall time
                                  ctx.put(0, ctx.make_item(0, 8, {}));
                                  return TaskStatus::kDone;
                                }});
  rt.connect(t, ch);
  rt.start();
  rt.clock().sleep_for(millis(60));
  rt.stop();
  const auto trace = rt.take_trace();
  // The item's produce_cost carries the accounted 500 ms.
  ASSERT_FALSE(trace.items.empty());
  EXPECT_EQ(trace.items[0].produce_cost, millis(500).count());
}

TEST(TaskApi, ForwardedItemKeepsItsProducerAndCost) {
  // A relay task puts items it did not make (as a node's fetch task puts
  // items it received off the wire into a mirror channel). The put must
  // leave the maker's identity alone: producer, produce cost, one
  // ItemRecord per id, and no kCompute booked by the relay.
  Runtime rt;
  Channel& in = rt.add_channel({.name = "in"});
  Channel& out = rt.add_channel({.name = "out"});
  auto next_ts = std::make_shared<Timestamp>(0);
  TaskContext& src = rt.add_task({.name = "src", .body = [next_ts](TaskContext& ctx) {
                                    if (*next_ts == 20) return TaskStatus::kDone;
                                    ctx.account_compute(millis(7));
                                    ctx.put(0, ctx.make_item((*next_ts)++, 64, {}));
                                    return TaskStatus::kContinue;
                                  }});
  TaskContext& relay = rt.add_task({.name = "relay", .body = [](TaskContext& ctx) {
                                      auto item = ctx.get(0);
                                      if (!item) return TaskStatus::kDone;
                                      ctx.account_compute(millis(3));
                                      ctx.put(0, std::const_pointer_cast<Item>(item));
                                      return TaskStatus::kContinue;
                                    }});
  struct Seen {
    NodeId producer;
    Nanos cost;
  };
  auto seen = std::make_shared<std::vector<Seen>>();
  TaskContext& snk = rt.add_task({.name = "snk", .body = [seen](TaskContext& ctx) {
                                    auto item = ctx.get(0);
                                    if (!item) return TaskStatus::kDone;
                                    seen->push_back({item->producer(), item->produce_cost()});
                                    ctx.emit(*item);
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, in);
  rt.connect(in, relay);
  rt.connect(relay, out);
  rt.connect(out, snk);
  rt.start();
  ASSERT_TRUE(rt.wait_emits(1, seconds(10)));
  rt.clock().sleep_for(millis(100));
  rt.stop();

  ASSERT_FALSE(seen->empty());
  for (const Seen& s : *seen) {
    EXPECT_EQ(s.producer, src.id());
    EXPECT_EQ(s.cost, millis(7));
  }
  const stats::Trace trace = rt.take_trace();
  std::map<ItemId, int> records;
  for (const stats::ItemRecord& rec : trace.items) {
    ++records[rec.id];
    EXPECT_EQ(rec.producer, src.id());
    EXPECT_EQ(rec.produce_cost, millis(7).count());
  }
  EXPECT_EQ(records.size(), 20u);
  for (const auto& [id, n] : records) EXPECT_EQ(n, 1) << "item " << id;
  for (const stats::Event& e : trace.events) {
    if (e.type == stats::EventType::kCompute && e.node == relay.id()) {
      EXPECT_EQ(e.item, 0) << "the relay's compute is not any forwarded item's cost";
    }
  }
}

}  // namespace
}  // namespace stampede
