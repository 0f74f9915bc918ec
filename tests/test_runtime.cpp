#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "stats/postmortem.hpp"

namespace stampede {
namespace {

/// Source producing `n` small items at an intrinsic `period`.
TaskBody fast_source(Nanos period, std::int64_t n = INT64_MAX) {
  auto count = std::make_shared<std::int64_t>(0);
  return [=](TaskContext& ctx) {
    if (*count >= n) return TaskStatus::kDone;
    ctx.compute(period);
    auto item = ctx.make_item((*count)++, 4096, {});
    ctx.put(0, item);
    return *count >= n ? TaskStatus::kDone : TaskStatus::kContinue;
  };
}

/// Worker consuming input 0, costing `period`, forwarding to output 0.
TaskBody worker(Nanos period) {
  return [=](TaskContext& ctx) {
    auto in = ctx.get(0);
    if (!in) return TaskStatus::kDone;
    ctx.compute(period);
    auto out = ctx.make_item(in->ts(), 256, {in->id()});
    ctx.put(0, out);
    return TaskStatus::kContinue;
  };
}

/// Sink consuming input 0 and emitting.
TaskBody sink(Nanos period = Nanos{0}) {
  return [=](TaskContext& ctx) {
    auto in = ctx.get(0);
    if (!in) return TaskStatus::kDone;
    if (period.count() > 0) ctx.compute(period);
    ctx.emit(*in);
    return TaskStatus::kContinue;
  };
}

TEST(Runtime, PipelineDeliversAllItemsWhenRatesMatch) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 50)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink()});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  EXPECT_TRUE(rt.wait_emits(45, seconds(10)));
  rt.stop();
  // A consumer faster than its producer sees (nearly) every item.
  EXPECT_GE(rt.recorder().emits(), 45);
}

TEST(Runtime, AruPacesSourceToConsumerRate) {
  Runtime rt({.aru = {.mode = aru::Mode::kMin}});
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(10))});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(800));
  rt.stop();

  // The source is intrinsically 10x faster; under ARU its iteration count
  // must approach the sink's, not 10x it.
  const double ratio =
      static_cast<double>(src.iterations()) / static_cast<double>(snk.iterations());
  EXPECT_LT(ratio, 2.0);
  // And its propagated summary must reflect the sink's ~10 ms period.
  EXPECT_GT(src.feedback().summary().count(), millis(6).count());
}

TEST(Runtime, WithoutAruSourceRunsFreely) {
  Runtime rt;  // ARU off
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(10))});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(800));
  rt.stop();
  const double ratio =
      static_cast<double>(src.iterations()) / static_cast<double>(snk.iterations());
  EXPECT_GT(ratio, 3.0);
}

TEST(Runtime, AruReducesWastedItems) {
  auto waste_for = [](aru::Mode mode) {
    Runtime rt({.aru = {.mode = mode}});
    Channel& ch = rt.add_channel({.name = "ch"});
    TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
    TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(8))});
    rt.connect(src, ch);
    rt.connect(ch, snk);
    rt.start();
    rt.clock().sleep_for(millis(700));
    rt.stop();
    const auto trace = rt.take_trace();
    return stats::Analyzer(trace).run().res.wasted_mem_pct;
  };
  const double wasted_off = waste_for(aru::Mode::kOff);
  const double wasted_min = waste_for(aru::Mode::kMin);
  EXPECT_GT(wasted_off, 30.0);
  EXPECT_LT(wasted_min, 15.0);
}

TEST(Runtime, FanOutMinFollowsFastestMaxFollowsSlowest) {
  auto source_period_under = [](aru::Mode mode) {
    Runtime rt({.aru = {.mode = mode}});
    Channel& ch = rt.add_channel({.name = "ch"});
    TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
    TaskContext& fast = rt.add_task({.name = "fast", .body = sink(millis(6))});
    TaskContext& slow = rt.add_task({.name = "slow", .body = sink(millis(18))});
    rt.connect(src, ch);
    rt.connect(ch, fast);
    rt.connect(ch, slow);
    rt.start();
    rt.clock().sleep_for(millis(900));
    rt.stop();
    return src.feedback().summary();
  };
  const Nanos with_min = source_period_under(aru::Mode::kMin);
  const Nanos with_max = source_period_under(aru::Mode::kMax);
  // min: pace to the fast consumer (~6 ms); max: to the slow one (~18 ms).
  EXPECT_LT(with_min.count(), millis(12).count());
  EXPECT_GT(with_max.count(), millis(13).count());
}

/// Names of this process's threads, as `top -H` shows them.
std::vector<std::string> thread_names() {
  std::vector<std::string> names;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  return names;
}

TEST(Runtime, TaskThreadsCarryTheirTaskNames) {
  Runtime rt;
  auto& ch = rt.add_channel({.name = "c"});
  auto& src = rt.add_task({.name = "named_source", .body = fast_source(millis(1))});
  auto& snk = rt.add_task({.name = "a_task_name_too_long_for_linux", .body = sink()});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(20));
  const auto names = thread_names();
  rt.stop();
  const auto has = [&](const std::string& name) {
    return std::ranges::find(names, name) != names.end();
  };
  EXPECT_TRUE(has("named_source"));
  EXPECT_TRUE(has("a_task_name_too")) << "names are cut to 15 bytes";
}

TEST(Runtime, StopUnblocksAllTasks) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  // A sink with no producer would block forever without stop().
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink()});
  TaskContext& src = rt.add_task(
      {.name = "idle-src", .body = [](TaskContext& ctx) {
         ctx.compute(millis(1));
         return TaskStatus::kDone;  // produces nothing
       }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(50));
  rt.stop();  // must not hang
  SUCCEED();
}

TEST(Runtime, TaskExceptionTerminatesOnlyThatTask) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 10)});
  TaskContext& bad = rt.add_task({.name = "bad", .body = [](TaskContext&) -> TaskStatus {
                                    throw std::runtime_error("boom");
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, bad);
  rt.start();
  rt.clock().sleep_for(millis(100));
  rt.stop();
  EXPECT_GE(src.iterations(), 5);
}

TEST(Runtime, GraphValidationRejectsCycles) {
  Runtime rt;
  Channel& a = rt.add_channel({.name = "a"});
  TaskContext& t = rt.add_task({.name = "t", .body = sink()});
  rt.connect(a, t);
  rt.connect(t, a);
  EXPECT_THROW(rt.start(), std::logic_error);
}

TEST(Runtime, MutationAfterStartThrows) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 5)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink()});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  EXPECT_THROW(rt.add_channel({.name = "late"}), std::logic_error);
  rt.stop();
  EXPECT_THROW(rt.add_task({.name = "late", .body = sink()}), std::logic_error);
}

TEST(Runtime, TaskWithoutBodyIsRejected) {
  Runtime rt;
  EXPECT_THROW(rt.add_task({.name = "empty"}), std::invalid_argument);
}

TEST(Runtime, InvalidPlacementIsRejected) {
  Runtime rt;  // single node topology
  EXPECT_THROW(rt.add_channel({.name = "x", .cluster_node = 3}), std::invalid_argument);
  EXPECT_THROW(rt.add_task({.name = "x", .cluster_node = 1, .body = sink()}),
               std::invalid_argument);
}

TEST(Runtime, TraceContainsLineageAndFrees) {
  Runtime rt;
  Channel& a = rt.add_channel({.name = "a"});
  Channel& b = rt.add_channel({.name = "b"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 20)});
  TaskContext& mid = rt.add_task({.name = "mid", .body = worker(millis(1))});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink()});
  rt.connect(src, a);
  rt.connect(a, mid);
  rt.connect(mid, b);
  rt.connect(b, snk);
  rt.start();
  rt.wait_emits(15, seconds(10));
  rt.stop();
  const auto trace = rt.take_trace();

  bool some_lineage = false;
  for (const auto& rec : trace.items) some_lineage |= !rec.lineage.empty();
  EXPECT_TRUE(some_lineage);

  std::int64_t allocs = 0, frees = 0;
  for (const auto& e : trace.events) {
    allocs += e.type == stats::EventType::kAlloc ? 1 : 0;
    frees += e.type == stats::EventType::kFree ? 1 : 0;
  }
  EXPECT_EQ(allocs, frees);  // everything drained at take_trace
  EXPECT_GT(allocs, 0);
}

TEST(Runtime, DgcElidesComputationWithThrottledMiddle) {
  // Source feeds a middle stage whose outputs nobody wants anymore
  // (sink's guarantee has advanced): outputs_want lets the middle skip.
  Runtime rt;
  Channel& a = rt.add_channel({.name = "a"});
  Channel& b = rt.add_channel({.name = "b"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(2), 100)});
  TaskContext& mid = rt.add_task(
      {.name = "mid", .body = [](TaskContext& ctx) {
         auto in = ctx.get(0);
         if (!in) return TaskStatus::kDone;
         if (!ctx.outputs_want(in->ts())) {
           ctx.elide(millis(5));
           return TaskStatus::kContinue;
         }
         ctx.compute(millis(5));
         auto out = ctx.make_item(in->ts(), 128, {in->id()});
         ctx.put(0, out);
         return TaskStatus::kContinue;
       }});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(1))});
  rt.connect(src, a);
  rt.connect(a, mid);
  rt.connect(mid, b);
  rt.connect(b, snk);
  rt.start();
  rt.clock().sleep_for(millis(500));
  rt.stop();
  // outputs_want must at least be callable and true in the common case:
  // the sink consumed items, so emits flowed.
  EXPECT_GT(rt.recorder().emits(), 0);
}

TEST(Runtime, ThrottleNonSourcePacesMiddleStages) {
  Runtime rt({.aru = {.mode = aru::Mode::kMin, .throttle_non_source = true}});
  Channel& a = rt.add_channel({.name = "a"});
  Channel& b = rt.add_channel({.name = "b"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
  TaskContext& mid = rt.add_task({.name = "mid", .body = worker(millis(1))});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(10))});
  rt.connect(src, a);
  rt.connect(a, mid);
  rt.connect(mid, b);
  rt.connect(b, snk);
  rt.start();
  rt.clock().sleep_for(millis(600));
  rt.stop();
  const double ratio =
      static_cast<double>(mid.iterations()) / static_cast<double>(snk.iterations());
  EXPECT_LT(ratio, 2.5);
}

TEST(Runtime, DrainDeliversBufferedItemsBeforeStopping) {
  Runtime rt;
  Queue& q = rt.add_queue({.name = "q"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 40)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(3))});
  rt.connect(src, q);
  rt.connect(q, snk);
  rt.start();
  // Wait until the source has produced all 40 items (closing the queue
  // earlier would reject the remainder), leaving a backlog to drain.
  const Nanos deadline = rt.clock().now() + seconds(10);
  while (src.iterations() < 40 && rt.clock().now() < deadline) {
    rt.clock().sleep_for(millis(5));
  }
  ASSERT_GE(src.iterations(), 40);
  const bool drained = rt.drain(seconds(10));
  EXPECT_TRUE(drained);
  // A queue delivers exactly-once: after a successful drain, every one of
  // the 40 items reached the sink.
  EXPECT_EQ(rt.recorder().emits(), 40);
}

TEST(Runtime, DrainTimesOutWhenConsumerCannotKeepUp) {
  Runtime rt;
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 30)});
  // Consumer that never reads: the channel can never empty.
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    ctx.clock().sleep_for(millis(10));
                                    return ctx.stopping() ? TaskStatus::kDone
                                                          : TaskStatus::kContinue;
                                  }});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.clock().sleep_for(millis(60));
  EXPECT_FALSE(rt.drain(millis(100)));
  EXPECT_FALSE(rt.running());
}

// Property: basic pipeline invariants hold under every GC strategy.
class GcKindSweep : public ::testing::TestWithParam<gc::Kind> {};

TEST_P(GcKindSweep, PipelineDeliversAndBalancesAccounting) {
  Runtime rt({.aru = {.mode = aru::Mode::kMin}, .gc = GetParam()});
  Channel& ch = rt.add_channel({.name = "ch"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 60)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink(millis(2))});
  rt.connect(src, ch);
  rt.connect(ch, snk);
  rt.start();
  rt.wait_emits(10, seconds(10));
  rt.stop();
  const auto trace = rt.take_trace();

  std::int64_t allocs = 0, frees = 0;
  for (const auto& e : trace.events) {
    allocs += e.type == stats::EventType::kAlloc ? 1 : 0;
    frees += e.type == stats::EventType::kFree ? 1 : 0;
  }
  EXPECT_EQ(allocs, frees) << gc::to_string(GetParam());
  EXPECT_GT(rt.recorder().emits(), 5);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GcKindSweep,
                         ::testing::Values(gc::Kind::kNone, gc::Kind::kTransparent,
                                           gc::Kind::kDeadTimestamp));

// Paper §3.3.2: "The worst case propagation time for a summary-STP value
// to reach the producer from the last consumer in the pipeline is equal to
// the time it takes for an item to be processed and be emitted by the
// application (i.e., latency)." — after a consumer slows down, the source
// must adapt within a few pipeline latencies.
TEST(Runtime, FeedbackReactionWithinPipelineLatencies) {
  Runtime rt({.aru = {.mode = aru::Mode::kMin}});
  Channel& a = rt.add_channel({.name = "a"});
  Channel& b = rt.add_channel({.name = "b"});
  auto slow_phase = std::make_shared<std::atomic<bool>>(false);

  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1))});
  TaskContext& mid = rt.add_task({.name = "mid", .body = worker(millis(2))});
  TaskContext& snk = rt.add_task(
      {.name = "snk", .body = [slow_phase](TaskContext& ctx) {
         auto in = ctx.get(0);
         if (!in) return TaskStatus::kDone;
         ctx.compute(slow_phase->load() ? millis(24) : millis(4));
         ctx.emit(*in);
         return TaskStatus::kContinue;
       }});
  rt.connect(src, a);
  rt.connect(a, mid);
  rt.connect(mid, b);
  rt.connect(b, snk);
  rt.start();
  rt.clock().sleep_for(millis(300));
  const Nanos before = src.feedback().summary();

  slow_phase->store(true);
  // Pipeline latency here is ~tens of ms; allow a handful of latencies.
  rt.clock().sleep_for(millis(250));
  const Nanos after = src.feedback().summary();
  rt.stop();

  EXPECT_LT(before.count(), millis(10).count());
  EXPECT_GT(after.count(), millis(18).count());
}

TEST(Runtime, PerChannelFilterOverridesRuntimeDefault) {
  // Runtime default passthrough; one channel carries a median filter that
  // must absorb a one-off spike in its consumer's summary.
  Runtime rt({.aru = {.mode = aru::Mode::kMin, .filter = "passthrough"}});
  Channel& filtered = rt.add_channel({.name = "filtered", .filter = "median:5"});
  // Drive the channel directly (no threads) through its public interface:
  const int c = filtered.register_consumer(200, 0);
  std::stop_source stop;
  // Prime with steady 10 ms summaries, then one 500 ms spike.
  auto put_get = [&](Nanos summary, Timestamp ts) {
    auto item = std::make_shared<Item>(
        const_cast<RunContext&>(rt.context()), ts, 64, 100, 0, std::vector<ItemId>{},
        Nanos{0});
    filtered.put(std::move(item), stop.get_token());
    filtered.get_latest(c, summary, kNoTimestamp, stop.get_token());
  };
  put_get(millis(10), 0);
  put_get(millis(10), 1);
  put_get(millis(500), 2);
  EXPECT_EQ(filtered.summary(), millis(10));  // median rejected the spike
}

TEST(Runtime, QueueBasedPipelineWorks) {
  Runtime rt;
  Queue& q = rt.add_queue({.name = "q"});
  TaskContext& src = rt.add_task({.name = "src", .body = fast_source(millis(1), 30)});
  TaskContext& snk = rt.add_task({.name = "snk", .body = sink()});
  rt.connect(src, q);
  rt.connect(q, snk);
  rt.start();
  EXPECT_TRUE(rt.wait_emits(30, seconds(10)));
  rt.stop();
  // Queues deliver exactly once, in order, nothing dropped.
  EXPECT_EQ(rt.recorder().emits(), 30);
}

}  // namespace
}  // namespace stampede
