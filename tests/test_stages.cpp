/// \file test_stages.cpp
/// \brief Tracker stage bodies in isolation (minimal pipelines around a
///        single stage under test).
#include "vision/stages.hpp"

#include <atomic>

#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include "stats/postmortem.hpp"
#include "vision/records.hpp"

namespace stampede::vision {
namespace {

StageCosts tiny() {
  StageCosts c = StageCosts{}.scaled(0.15);  // sub-3ms stages for fast tests
  return c;
}

TEST(DigitizerStage, ProducesExactlyMaxFramesWithConsecutiveTimestamps) {
  Runtime rt;
  auto gen = std::make_shared<SceneGenerator>(3);
  Channel& frames = rt.add_channel({.name = "frames"});
  TaskContext& dig =
      rt.add_task({.name = "dig", .body = make_digitizer(gen, tiny(), 12)});
  auto seen = std::make_shared<std::vector<Timestamp>>();
  TaskContext& snk = rt.add_task({.name = "snk", .body = [seen](TaskContext& ctx) {
                                    auto in = ctx.get_next(0);
                                    if (!in) return TaskStatus::kDone;
                                    EXPECT_EQ(in->bytes(), kFrameBytes);
                                    seen->push_back(in->ts());
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(dig, frames);
  rt.connect(frames, snk);
  rt.start();
  rt.clock().sleep_for(millis(400));
  rt.stop();

  ASSERT_EQ(seen->size(), 12u);
  for (std::size_t i = 0; i < seen->size(); ++i) {
    EXPECT_EQ((*seen)[i], static_cast<Timestamp>(i));
  }
}

TEST(BackgroundStage, MaskCarriesFrameLineageAndTimestamp) {
  Runtime rt;
  auto gen = std::make_shared<SceneGenerator>(3);
  Channel& frames = rt.add_channel({.name = "frames"});
  Channel& masks = rt.add_channel({.name = "masks"});
  // Plenty of frames: the background stage reads the *latest* frame, so a
  // fast digitizer (payload alloc is pooled and fill-free) can outrun it
  // and most frames are skipped — the emit count depends on the speed
  // ratio, not the frame count. 64 frames tolerates a bg stage an order
  // of magnitude slower than the digitizer (TSan makes it so).
  TaskContext& dig = rt.add_task({.name = "dig", .body = make_digitizer(gen, tiny(), 64)});
  TaskContext& bg = rt.add_task({.name = "bg", .body = make_background(tiny())});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    if (!in) return TaskStatus::kDone;
                                    EXPECT_EQ(in->bytes(), kMaskBytes);
                                    EXPECT_EQ(in->lineage().size(), 1u);
                                    ctx.emit(*in);
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(dig, frames);
  rt.connect(frames, bg);
  rt.connect(bg, masks);
  rt.connect(masks, snk);
  rt.start();
  rt.wait_emits(4, seconds(10));
  rt.stop();
  EXPECT_GE(rt.recorder().emits(), 4);
}

TEST(HistogramStage, PayloadIsNormalizedHistogram) {
  Runtime rt;
  auto gen = std::make_shared<SceneGenerator>(3);
  Channel& frames = rt.add_channel({.name = "frames"});
  Channel& hists = rt.add_channel({.name = "hists"});
  constexpr Timestamp kLastFrame = 5;
  auto last_checked = std::make_shared<std::atomic<Timestamp>>(kNoTimestamp);
  TaskContext& dig =
      rt.add_task({.name = "dig", .body = make_digitizer(gen, tiny(), kLastFrame + 1)});
  TaskContext& hist = rt.add_task({.name = "hist", .body = make_histogram(tiny())});
  TaskContext& snk = rt.add_task({.name = "snk", .body = [last_checked](TaskContext& ctx) {
                                    auto in = ctx.get(0);
                                    if (!in) return TaskStatus::kDone;
                                    const ConstHistogramView view(in->data());
                                    float sum = 0;
                                    for (const float b : view.bins()) sum += b;
                                    EXPECT_NEAR(sum, 1.0f, 1e-3f);
                                    last_checked->store(in->ts());
                                    return TaskStatus::kContinue;
                                  }});
  rt.connect(dig, frames);
  rt.connect(frames, hist);
  rt.connect(hist, hists);
  rt.connect(hists, snk);
  rt.start();
  // Latest-get guarantees the final frame's histogram reaches the sink, so
  // wait for that (generous deadline for loaded hosts) rather than count
  // how many histograms a fixed window happened to deliver.
  const Nanos deadline = rt.clock().now() + seconds(30);
  while (last_checked->load() != kLastFrame && rt.clock().now() < deadline) {
    rt.clock().sleep_for(millis(5));
  }
  rt.stop();
  EXPECT_EQ(last_checked->load(), kLastFrame);
}

TEST(GuiStage, EmitsBothModelsAndOneDisplayPerRefresh) {
  Runtime rt;
  Channel& loc1 = rt.add_channel({.name = "loc1"});
  Channel& loc2 = rt.add_channel({.name = "loc2"});
  // Two synthetic record producers standing in for the detectors.
  auto loc_producer = [](int model) {
    return [model](TaskContext& ctx) {
      static thread_local Timestamp ts = 0;
      ctx.compute(millis(2));
      auto item = ctx.make_item(ts++, kLocationBytes, {});
      LocationRecord rec;
      rec.model = model;
      rec.frame_ts = item->ts();
      write_location(item->mutable_data(), rec);
      ctx.put(0, item);
      return TaskStatus::kContinue;
    };
  };
  TaskContext& p1 = rt.add_task({.name = "p1", .body = loc_producer(0)});
  TaskContext& p2 = rt.add_task({.name = "p2", .body = loc_producer(1)});
  TaskContext& gui = rt.add_task({.name = "gui", .body = make_gui(tiny())});
  rt.connect(p1, loc1);
  rt.connect(p2, loc2);
  rt.connect(loc1, gui);
  rt.connect(loc2, gui);
  rt.start();
  rt.clock().sleep_for(millis(300));
  rt.stop();
  const auto trace = rt.take_trace();

  std::int64_t emits = 0, displays = 0;
  for (const auto& e : trace.events) {
    emits += e.type == stats::EventType::kEmit ? 1 : 0;
    displays += e.type == stats::EventType::kDisplay ? 1 : 0;
  }
  EXPECT_GT(displays, 5);
  EXPECT_EQ(emits, displays * 2);  // two emits (one per model) per refresh
}

}  // namespace
}  // namespace stampede::vision
