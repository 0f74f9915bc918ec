// Tests of the end-to-end benchmark's own logic: percentile math, the
// open-loop due-time schedule and generator lateness, the output checks
// against injected bad records, and the result line.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "checks.hpp"
#include "report.hpp"

using namespace perfbench;
namespace vision = stampede::vision;

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  std::vector<double> two = {10, 20};
  EXPECT_DOUBLE_EQ(percentile(two, 50), 15.0);
  EXPECT_DOUBLE_EQ(percentile(two, 99), 19.9);
}

TEST(Percentile, P99OfUniformSample) {
  std::vector<double> v;
  for (int i = 1; i <= 10000; ++i) v.push_back(i);
  EXPECT_NEAR(percentile(v, 99), 9900.01, 1e-6);
  EXPECT_EQ(samples_beyond(v.size(), 99), 100u);
  EXPECT_EQ(samples_beyond(100, 99), 1u);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  std::vector<double> empty;
  EXPECT_THROW(percentile(empty, 50), std::invalid_argument);
  std::vector<double> one = {1.0};
  EXPECT_THROW(percentile(one, 101), std::invalid_argument);
  EXPECT_DOUBLE_EQ(percentile(one, 99), 1.0);
}

TEST(DueSchedule, ItemsOfATickShareItsDueTime) {
  const DueSchedule s(1'000, 1'000'000, 100);
  EXPECT_EQ(s.due(0), 1'000);
  EXPECT_EQ(s.due(99), 1'000);
  EXPECT_EQ(s.due(100), 1'001'000);
  EXPECT_EQ(s.due(250), 2'001'000);
}

TEST(DueSchedule, RejectsABadRate) {
  EXPECT_THROW(DueSchedule(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(DueSchedule(0, 1'000'000, 0), std::invalid_argument);
}

TEST(Lateness, ChargesOnlyLateSends) {
  Lateness l;
  EXPECT_DOUBLE_EQ(l.mean_us(), 0.0);
  l.add(1'000, 500);    // early: on time
  l.add(1'000, 4'000);  // 3 us late
  l.add(2'000, 2'000);  // exactly on time
  EXPECT_DOUBLE_EQ(l.mean_us(), 1.0);
  EXPECT_DOUBLE_EQ(l.max_us(), 3.0);
}

TEST(Lateness, AStalledSenderMakesEveryLaterItemLate) {
  // A sender stalled for 5 ticks sends the next 5 ticks' items at once:
  // each is charged from its own due time, not from the first one.
  const DueSchedule s(0, 1'000'000, 1);
  Lateness l;
  for (std::int64_t k = 0; k < 5; ++k) l.add(s.due(k), 5'000'000);
  EXPECT_DOUBLE_EQ(l.max_us(), 5'000.0);
  EXPECT_DOUBLE_EQ(l.mean_us(), 3'000.0);
}

TEST(RelayChecks, IntactPayloadPasses) {
  std::vector<std::byte> buf(1024);
  fill_relay_payload(buf, 7, 42, 123'456);
  EXPECT_EQ(check_relay_payload(buf, 1024, 7, 42), nullptr);
  EXPECT_EQ(relay_due_ns(buf), 123'456);
}

TEST(RelayChecks, InjectedCorruptionIsNamed) {
  std::vector<std::byte> buf(1024);
  fill_relay_payload(buf, 7, 42, 0);
  EXPECT_STREQ(check_relay_payload(buf, 1024, 7, 43), "payload_ts");
  EXPECT_STREQ(check_relay_payload(buf, 1024, 8, 42), "payload_bytes");
  EXPECT_STREQ(check_relay_payload(std::span(buf).first(512), 1024, 7, 42), "payload_size");
  buf[700] ^= std::byte{1};
  EXPECT_STREQ(check_relay_payload(buf, 1024, 7, 42), "payload_bytes");
}

TEST(SequenceCheck, ExactlyOnceInOrder) {
  SequenceCheck s;
  EXPECT_EQ(s.next(0), nullptr);
  EXPECT_EQ(s.next(1), nullptr);
  EXPECT_STREQ(s.next(1), "duplicate");
  EXPECT_STREQ(s.next(0), "duplicate");
  EXPECT_STREQ(s.next(5), "lost");
  EXPECT_EQ(s.next(6), nullptr);
  EXPECT_EQ(s.expected(), 7);
}

namespace {

vision::LocationRecord good_record(const vision::Scene& scene, std::int64_t ts, int model) {
  vision::LocationRecord r;
  r.frame_ts = ts;
  r.model = model;
  r.found = 1;
  r.truth_x = scene.blobs[model].cx;
  r.truth_y = scene.blobs[model].cy;
  r.x = r.truth_x + 3.0;
  r.y = r.truth_y - 4.0;
  return r;
}

}  // namespace

TEST(TrackerChecks, GoodRecordPasses) {
  const vision::SceneGenerator gen(11);
  const vision::Scene scene = gen.scene_at(30);
  EXPECT_EQ(check_tracker_record(good_record(scene, 30, 1), 30, 1, scene, 24.0), nullptr);
}

TEST(TrackerChecks, InjectedBadRecordsAreNamed) {
  const vision::SceneGenerator gen(11);
  const vision::Scene scene = gen.scene_at(30);
  auto r = good_record(scene, 30, 0);
  r.frame_ts = 29;
  EXPECT_STREQ(check_tracker_record(r, 30, 0, scene, 24.0), "record_ts");
  r = good_record(scene, 30, 0);
  EXPECT_STREQ(check_tracker_record(r, 30, 1, scene, 24.0), "record_model");
  r = good_record(scene, 30, 0);
  r.truth_x += 50.0;
  EXPECT_STREQ(check_tracker_record(r, 30, 0, scene, 24.0), "record_truth");
  r = good_record(scene, 30, 0);
  r.found = 0;
  r.x = r.y = 0.0;
  EXPECT_EQ(check_tracker_record(r, 30, 0, scene, 24.0), nullptr);  // a miss, not a failure
  r = good_record(scene, 30, 0);
  r.x = r.truth_x + 30.0;
  EXPECT_STREQ(check_tracker_record(r, 30, 0, scene, 24.0), "target_position");
}

TEST(CheckTally, CountsByName) {
  CheckTally t;
  EXPECT_EQ(t.summary(), "");
  t.fail("lost");
  t.fail("payload_bytes");
  t.fail("lost");
  EXPECT_EQ(t.failed(), 3);
  EXPECT_EQ(t.summary(), "lost=2,payload_bytes=1");
}

TEST(Report, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 10, 0, {{"setup_s", "s", 0.5}, {"sink_per_s", "1/s", 1234.5}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"sink_per_s\": "
            "{\"value\": 1234.5, \"unit\": \"1/s\"}}}");
}

TEST(Report, MetricNamesAreUniqueAndIncludeSetup) {
  std::vector<std::string> names;
  bool setup = false;
  for (const Metric& m : end_to_end_names()) {
    names.push_back(m.name);
    setup |= m.name == "setup_s" && m.unit == "s";
  }
  for (const Metric& m : per_layer_names()) names.push_back(m.name);
  EXPECT_TRUE(setup);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_LE(per_layer_names().size(), 128u);
}
