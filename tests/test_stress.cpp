/// \file test_stress.cpp
/// \brief Concurrency stress / failure-injection tests: invariants that
///        must hold under racing producers, consumers and shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/runtime.hpp"
#include "stats/postmortem.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace stampede {
namespace {

using test::Env;

TEST(Stress, ManyProducersManyConsumersOnOneChannel) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  constexpr int kConsumers = 4;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 300;

  std::vector<int> consumer_ids;
  for (int i = 0; i < kConsumers; ++i) consumer_ids.push_back(ch->register_consumer(200 + i, 0));

  std::atomic<std::int64_t> delivered{0};
  std::atomic<bool> done{false};
  std::vector<std::jthread> threads;

  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c](std::stop_token st) {
      Timestamp last = kNoTimestamp;
      while (!st.stop_requested()) {
        auto res = ch->get_latest(consumer_ids[static_cast<std::size_t>(c)],
                                  aru::kUnknownStp, kNoTimestamp, st);
        if (!res.item) break;
        // Per-consumer monotonicity must survive racing producers.
        ASSERT_GT(res.item->ts(), last);
        last = res.item->ts();
        delivered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    std::atomic<Timestamp> next_ts{0};
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&](std::stop_token st) {
        for (int i = 0; i < kPerProducer && !st.stop_requested(); ++i) {
          const Timestamp ts = next_ts.fetch_add(1, std::memory_order_relaxed);
          ch->put(env.make_item(ts, 128), st);
          // Brief pauses so consumers observe many distinct "latest"
          // snapshots rather than one final burst.
          if (i % 25 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    // Join without requesting stop, as for the consumers below: a jthread
    // destructor requests stop first, and a producer not yet scheduled
    // would then put nothing at all.
    for (std::jthread& t : producers) t.join();
  }
  done = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ch->close();
  // Join without requesting stop: a consumer not yet scheduled must still
  // drain the newest item before it sees "closed and drained" (a jthread
  // destructor would request stop first, and it would never get).
  for (std::jthread& t : threads) t.join();
  threads.clear();

  // On a single core the scheduler decides how many distinct "latest"
  // waves each consumer observes; the hard invariants are monotonic
  // delivery (asserted in the consumer loops) and exact accounting below.
  EXPECT_GE(delivered.load(), kConsumers);
  // All memory accounted: channel may still hold undelivered items.
  ch.reset();
  EXPECT_EQ(env.tracker.total_bytes(), 0);
}

TEST(Stress, RandomizedPipelineShutdownNeverHangsOrLeaks) {
  // Repeatedly build a random pipeline, run briefly, stop at a random
  // moment (possibly while everything is mid-flight).
  for (std::uint64_t round = 0; round < 6; ++round) {
    Xoshiro256 rng(round * 977 + 1);
    Runtime rt({.aru = rng.uniform() < 0.5 ? aru::Config{.mode = aru::Mode::kMin}
                                           : aru::Config{.mode = aru::Mode::kOff},
                .seed = round});

    const int depth = 2 + static_cast<int>(rng.below(3));
    std::vector<Channel*> chans;
    TaskContext* prev = &rt.add_task(
        {.name = "src", .body = [](TaskContext& ctx) {
           static thread_local Timestamp ts = 0;
           ctx.compute(micros(500));
           ctx.put(0, ctx.make_item(ts++, 2048, {}));
           return TaskStatus::kContinue;
         }});
    for (int d = 0; d < depth; ++d) {
      Channel& ch = rt.add_channel({.name = "ch" + std::to_string(d)});
      rt.connect(*prev, ch);
      const bool is_last = d + 1 == depth;
      TaskContext& next = rt.add_task(
          {.name = "stage" + std::to_string(d), .body = [is_last](TaskContext& ctx) {
             auto in = ctx.get(0);
             if (!in) return TaskStatus::kDone;
             ctx.compute(millis(1));
             if (is_last) {
               ctx.emit(*in);
             } else {
               ctx.put(0, ctx.make_item(in->ts(), 256, {in->id()}));
             }
             return TaskStatus::kContinue;
           }});
      rt.connect(ch, next);
      prev = &next;
      chans.push_back(&ch);
    }
    rt.start();
    rt.clock().sleep_for(millis(20 + static_cast<std::int64_t>(rng.below(120))));
    rt.stop();  // must never hang
    const auto trace = rt.take_trace();

    // Alloc/free balance: everything drained.
    std::int64_t allocs = 0, frees = 0;
    for (const auto& e : trace.events) {
      allocs += e.type == stats::EventType::kAlloc ? 1 : 0;
      frees += e.type == stats::EventType::kFree ? 1 : 0;
    }
    EXPECT_EQ(allocs, frees) << "round " << round;
  }
}

TEST(Stress, BoundedChannelUnderShutdownReleasesBlockedProducer) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "tiny", .capacity = 1});
  TaskContext& src = rt.add_task({.name = "src", .body = [](TaskContext& ctx) {
                                    static thread_local Timestamp ts = 0;
                                    ctx.put(0, ctx.make_item(ts++, 64, {}));
                                    return TaskStatus::kContinue;
                                  }});
  // Deliberately slow consumer: producer will be blocked on capacity when
  // stop() arrives.
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    if (!in) return TaskStatus::kDone;
                                    ctx.compute(millis(50));
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(120));
  rt.stop();  // must unblock the producer stuck in put()
  SUCCEED();
}

TEST(Stress, TraceOrderingInvariantPerItem) {
  // For every item: alloc happens-before put happens-before any
  // consume/skip, and free is last.
  Runtime rt({.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = [](TaskContext& ctx) {
                                    static thread_local Timestamp ts = 0;
                                    ctx.compute(millis(1));
                                    ctx.put(0, ctx.make_item(ts++, 512, {}));
                                    return TaskStatus::kContinue;
                                  }});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    if (!in) return TaskStatus::kDone;
                                    ctx.compute(millis(3));
                                    ctx.emit(*in);
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(400));
  rt.stop();
  const auto trace = rt.take_trace();

  struct Order {
    std::int64_t alloc = -1, put = -1, first_use = -1, free = -1;
  };
  std::unordered_map<stats::ItemId, Order> orders;
  for (const auto& e : trace.events) {
    Order& o = orders[e.item];
    switch (e.type) {
      case stats::EventType::kAlloc: o.alloc = e.t; break;
      case stats::EventType::kPut: o.put = e.t; break;
      case stats::EventType::kConsume:
      case stats::EventType::kSkip:
        if (o.first_use < 0) o.first_use = e.t;
        break;
      case stats::EventType::kFree: o.free = e.t; break;
      default: break;
    }
  }
  int checked = 0;
  for (const auto& [id, o] : orders) {
    if (id == 0 || o.alloc < 0) continue;
    ++checked;
    if (o.put >= 0) {
      EXPECT_LE(o.alloc, o.put);
    }
    if (o.first_use >= 0 && o.put >= 0) {
      EXPECT_LE(o.put, o.first_use);
    }
    if (o.free >= 0) {
      EXPECT_LE(o.alloc, o.free);
    }
  }
  EXPECT_GT(checked, 10);
}

}  // namespace
}  // namespace stampede
