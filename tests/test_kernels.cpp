#include "vision/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace stampede::vision {
namespace {

std::vector<std::byte> render(const SceneGenerator& gen, std::int64_t index,
                              int stride = kDefaultStride) {
  std::vector<std::byte> buf(kFrameBytes);
  gen.render(index, buf, stride);
  return buf;
}

TEST(SceneGenerator, DeterministicPerSeedAndFrame) {
  SceneGenerator a(7), b(7);
  EXPECT_EQ(render(a, 3), render(b, 3));
  EXPECT_NE(render(a, 3), render(a, 4));
}

TEST(SceneGenerator, DifferentSeedsDifferentScenes) {
  SceneGenerator a(1), b(2);
  const Scene sa = a.scene_at(10), sb = b.scene_at(10);
  EXPECT_NE(sa.blobs[0].cx, sb.blobs[0].cx);
}

TEST(SceneGenerator, BlobsStayInsideFrame) {
  SceneGenerator gen(5);
  for (std::int64_t i = 0; i < 500; i += 7) {
    const Scene s = gen.scene_at(i);
    for (const Blob& blob : s.blobs) {
      EXPECT_GE(blob.cx, 0.0);
      EXPECT_LT(blob.cx, kWidth);
      EXPECT_GE(blob.cy, 0.0);
      EXPECT_LT(blob.cy, kHeight);
    }
  }
}

TEST(SceneGenerator, BlobPixelsHaveModelColor) {
  SceneGenerator gen(9);
  const auto buf = render(gen, 20, /*stride=*/1);
  const ConstFrameView frame(buf);
  const Scene s = gen.scene_at(20);
  const int cx = static_cast<int>(s.blobs[0].cx);
  const int cy = static_cast<int>(s.blobs[0].cy);
  const Rgb px = frame.get(cx, cy);
  const Rgb model = gen.model_color(0);
  EXPECT_EQ(px.r, model.r);
  EXPECT_EQ(px.g, model.g);
  EXPECT_EQ(px.b, model.b);
}

TEST(SceneGenerator, InvalidStrideThrows) {
  SceneGenerator gen(1);
  std::vector<std::byte> buf(kFrameBytes);
  EXPECT_THROW(gen.render(0, buf, 0), std::invalid_argument);
}

TEST(FrameView, BoundsChecked) {
  std::vector<std::byte> buf(kFrameBytes);
  FrameView f(buf);
  EXPECT_THROW(f.get(-1, 0), std::out_of_range);
  EXPECT_THROW(f.get(kWidth, 0), std::out_of_range);
  EXPECT_THROW(f.set(0, kHeight, Rgb{}), std::out_of_range);
  std::vector<std::byte> small_buf(10);
  EXPECT_THROW((void)FrameView(std::span<std::byte>(small_buf)), std::invalid_argument);
}

TEST(FrameView, RoundTripsPixels) {
  std::vector<std::byte> buf(kFrameBytes);
  FrameView f(buf);
  f.set(10, 20, Rgb{1, 2, 3});
  const Rgb c = f.get(10, 20);
  EXPECT_EQ(c.r, 1);
  EXPECT_EQ(c.g, 2);
  EXPECT_EQ(c.b, 3);
  EXPECT_EQ(f.luminance(10, 20), (1 * 299 + 2 * 587 + 3 * 114) / 1000);
}

TEST(FrameDifference, StaticSceneProducesEmptyMask) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  std::vector<std::byte> mask(kMaskBytes);
  const int moving = frame_difference(ConstFrameView(a), ConstFrameView(a), mask,
                                      /*threshold=*/24, /*stride=*/4);
  EXPECT_EQ(moving, 0);
}

TEST(FrameDifference, MovingBlobIsDetected) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  const auto b = render(gen, 25, 4);  // blobs moved substantially
  std::vector<std::byte> mask(kMaskBytes);
  const int moving = frame_difference(ConstFrameView(b), ConstFrameView(a), mask, 24, 4);
  EXPECT_GT(moving, 20);
}

TEST(FrameDifference, SmallMaskBufferThrows) {
  SceneGenerator gen(1);
  const auto a = render(gen, 0);
  std::vector<std::byte> tiny(16);
  EXPECT_THROW(frame_difference(ConstFrameView(a), ConstFrameView(a), tiny), std::invalid_argument);
}

TEST(FrameDifference, SampledRowCopyGivesTheFullCopyMasks) {
  // Golden check for the background stage: keeping only the sampled rows
  // of the previous frame yields bit-identical masks to keeping all of it,
  // over a moving sequence. The unsampled rows of the row copy hold junk
  // (they are never read) and the masks start from the same junk.
  for (const int stride : {1, 3, 8}) {
    SceneGenerator gen(11);
    std::vector<std::byte> full_prev(kFrameBytes);
    std::vector<std::byte> row_prev(kFrameBytes, std::byte{0xA5});
    int moving_frames = 0;
    for (std::int64_t index = 0; index < 24; ++index) {
      const auto cur = render(gen, index * 3, stride);
      if (index > 0) {
        std::vector<std::byte> want(kMaskBytes, std::byte{0x11});
        std::vector<std::byte> got(kMaskBytes, std::byte{0x11});
        const int a = frame_difference(ConstFrameView(cur), ConstFrameView(full_prev), want,
                                       24, stride);
        const int b = frame_difference(ConstFrameView(cur), ConstFrameView(row_prev), got,
                                       24, stride);
        EXPECT_EQ(a, b) << "stride " << stride << " frame " << index;
        ASSERT_EQ(want, got) << "stride " << stride << " frame " << index;
        moving_frames += a > 0 ? 1 : 0;
      }
      full_prev = cur;
      copy_sampled_rows(ConstFrameView(cur), row_prev, stride);
    }
    EXPECT_GT(moving_frames, 0) << "the sequence must move at stride " << stride;
  }
  std::vector<std::byte> tiny(16);
  const auto frame = render(SceneGenerator(1), 0);
  EXPECT_THROW(copy_sampled_rows(ConstFrameView(frame), tiny), std::invalid_argument);
}

TEST(ColorHistogram, BinsAreNormalized) {
  SceneGenerator gen(4);
  const auto frame = render(gen, 8, 4);
  std::vector<std::byte> payload(kHistogramBytes);
  color_histogram(ConstFrameView(frame), payload, 4);
  ConstHistogramView hist(payload);
  float sum = 0;
  for (const float b : hist.bins()) {
    ASSERT_GE(b, 0.0f);
    sum += b;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(ColorHistogram, BackgroundDominatesBins) {
  SceneGenerator gen(4);
  const auto frame = render(gen, 8, 4);
  std::vector<std::byte> payload(kHistogramBytes);
  color_histogram(ConstFrameView(frame), payload, 4);
  ConstHistogramView hist(payload);
  // Gray background (~96-127 per channel) lands in a handful of bins that
  // must hold most of the mass.
  float top = 0;
  for (const float b : hist.bins()) top = std::max(top, b);
  EXPECT_GT(top, 0.2f);
}

TEST(DetectTarget, FindsBlobNearGroundTruth) {
  SceneGenerator gen(11);
  const auto prev = render(gen, 30, 2);
  const auto cur = render(gen, 31, 2);
  std::vector<std::byte> mask(kMaskBytes);
  frame_difference(ConstFrameView(cur), ConstFrameView(prev), mask, 24, 2);
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 2);

  for (int model = 0; model < 2; ++model) {
    const LocationRecord rec =
        detect_target(ConstFrameView(cur), mask, ConstHistogramView(hist_payload),
                      gen.model_color(model), model, 2);
    const Scene truth = gen.scene_at(31);
    ASSERT_TRUE(rec.found) << "model " << model;
    const double dx = rec.x - truth.blobs[model].cx;
    const double dy = rec.y - truth.blobs[model].cy;
    // Centroid within roughly one blob radius of ground truth. The motion
    // mask covers both old and new positions, so allow 2x radius.
    EXPECT_LT(std::sqrt(dx * dx + dy * dy), 2.5 * truth.blobs[model].radius)
        << "model " << model;
  }
}

TEST(MeanShift, ConvergesToBlobFromNearbyStart) {
  SceneGenerator gen(13);
  const auto frame = render(gen, 40, 2);
  const Scene truth = gen.scene_at(40);
  for (int model = 0; model < 2; ++model) {
    const double sx = truth.blobs[model].cx + 30;  // start off-center
    const double sy = truth.blobs[model].cy - 25;
    const MeanShiftResult r = mean_shift_track(ConstFrameView(frame),
                                               gen.model_color(model), sx, sy, 60.0, 15, 2);
    ASSERT_TRUE(r.converged) << "model " << model;
    const double err = std::hypot(r.x - truth.blobs[model].cx,
                                  r.y - truth.blobs[model].cy);
    EXPECT_LT(err, truth.blobs[model].radius) << "model " << model;
  }
}

TEST(MeanShift, TracksAcrossConsecutiveFrames) {
  // Classic tracker loop: seed each frame's search at the previous result.
  SceneGenerator gen(13);
  const Scene s0 = gen.scene_at(0);
  double x = s0.blobs[0].cx, y = s0.blobs[0].cy;
  for (std::int64_t ts = 1; ts <= 20; ++ts) {
    const auto frame = render(gen, ts, 2);
    const MeanShiftResult r =
        mean_shift_track(ConstFrameView(frame), gen.model_color(0), x, y, 60.0, 15, 2);
    ASSERT_TRUE(r.converged) << "frame " << ts;
    x = r.x;
    y = r.y;
    const Scene truth = gen.scene_at(ts);
    EXPECT_LT(std::hypot(x - truth.blobs[0].cx, y - truth.blobs[0].cy),
              truth.blobs[0].radius)
        << "frame " << ts;
  }
}

TEST(MeanShift, ReportsLostWhenNoMassInWindow) {
  std::vector<std::byte> blank(kFrameBytes);  // black frame: no color mass
  const MeanShiftResult r =
      mean_shift_track(ConstFrameView(blank), Rgb{220, 40, 40}, 100, 100, 40.0, 8, 4);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.mass, 0.0);
}

TEST(MeanShift, BadParametersThrow) {
  std::vector<std::byte> frame(kFrameBytes);
  EXPECT_THROW(mean_shift_track(ConstFrameView(frame), Rgb{}, 0, 0, -1.0),
               std::invalid_argument);
  EXPECT_THROW(mean_shift_track(ConstFrameView(frame), Rgb{}, 0, 0, 10.0, 0),
               std::invalid_argument);
}

TEST(ConnectedComponents, FindsTwoSeparatedBlobs) {
  std::vector<std::byte> mask(kMaskBytes);
  auto set_box = [&](int x0, int y0, int x1, int y1) {
    for (int y = y0; y <= y1; y += 4) {
      for (int x = x0; x <= x1; x += 4) {
        mask[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
            std::byte{255};
      }
    }
  };
  set_box(40, 40, 80, 80);     // big blob
  set_box(400, 200, 420, 220);  // small blob

  const auto blobs = connected_components(mask, 4, 2);
  ASSERT_EQ(blobs.size(), 2u);
  EXPECT_GT(blobs[0].pixels, blobs[1].pixels);  // sorted largest first
  EXPECT_NEAR(blobs[0].cx, 60.0, 4.0);
  EXPECT_NEAR(blobs[0].cy, 60.0, 4.0);
  EXPECT_EQ(blobs[0].min_x, 40);
  EXPECT_EQ(blobs[0].max_x, 80);
  EXPECT_NEAR(blobs[1].cx, 410.0, 4.0);
}

TEST(ConnectedComponents, DiagonalPixelsConnect) {
  std::vector<std::byte> mask(kMaskBytes);
  auto set = [&](int x, int y) {
    mask[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] = std::byte{255};
  };
  set(0, 0);
  set(4, 4);  // diagonal neighbour on the stride-4 grid
  const auto blobs = connected_components(mask, 4, 1);
  ASSERT_EQ(blobs.size(), 1u);
  EXPECT_EQ(blobs[0].pixels, 2);
}

TEST(ConnectedComponents, MinPixelsFiltersSpeckle) {
  std::vector<std::byte> mask(kMaskBytes);
  mask[0] = std::byte{255};  // lone pixel
  EXPECT_TRUE(connected_components(mask, 4, 2).empty());
  EXPECT_EQ(connected_components(mask, 4, 1).size(), 1u);
}

TEST(ConnectedComponents, EmptyMaskAndErrors) {
  std::vector<std::byte> mask(kMaskBytes);
  EXPECT_TRUE(connected_components(mask, 4).empty());
  std::vector<std::byte> tiny(8);
  EXPECT_THROW(connected_components(tiny, 4), std::invalid_argument);
  EXPECT_THROW(connected_components(mask, 0), std::invalid_argument);
}

TEST(ConnectedComponents, MovingBlobsYieldComponentsOnRealMask) {
  SceneGenerator gen(3);
  const auto a = render(gen, 5, 4);
  const auto b = render(gen, 25, 4);
  std::vector<std::byte> mask(kMaskBytes);
  frame_difference(ConstFrameView(b), ConstFrameView(a), mask, 24, 4);
  const auto blobs = connected_components(mask, 4, 3);
  EXPECT_GE(blobs.size(), 1u);  // at least the moved blobs stand out
}

// -- golden tests: LUT kernels vs direct std::exp references ------------------
//
// detect_target and mean_shift_track replaced the per-pixel std::exp with
// per-channel weight tables, and color_histogram/frame_difference moved to
// fused row-pointer passes. These references re-state the original
// per-pixel formulations; the production kernels must agree within 1e-3
// (the table form only reorders floating-point operations).

double ref_weight(Rgb c, Rgb model) {
  const double dr = static_cast<double>(c.r) - model.r;
  const double dg = static_cast<double>(c.g) - model.g;
  const double db = static_cast<double>(c.b) - model.b;
  return std::exp(-(dr * dr + dg * dg + db * db) / (2.0 * 40.0 * 40.0));
}

LocationRecord ref_detect_target(ConstFrameView frame, std::span<const std::byte> mask,
                                 ConstHistogramView histogram, Rgb model, int model_index,
                                 int stride) {
  const bool use_mask = mask.size() >= kMaskBytes;
  const auto bins = histogram.bins();
  double wsum = 0.0, xsum = 0.0, ysum = 0.0;
  int considered = 0;
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      if (use_mask &&
          static_cast<unsigned char>(mask[static_cast<std::size_t>(y) * kWidth +
                                          static_cast<std::size_t>(x)]) == 0) {
        continue;
      }
      ++considered;
      const Rgb c = frame.get(x, y);
      double w = ref_weight(c, model);
      const float freq = bins[static_cast<std::size_t>(hist_bin(c))];
      w *= 1.0 / (1.0 + 50.0 * static_cast<double>(freq));
      if (w < 1e-4) continue;
      wsum += w;
      xsum += w * x;
      ysum += w * y;
    }
  }
  LocationRecord rec;
  rec.model = model_index;
  if (wsum > 0.05 && considered > 0) {
    rec.found = 1;
    rec.x = xsum / wsum;
    rec.y = ysum / wsum;
    rec.confidence = std::min(1.0, wsum / static_cast<double>(considered));
  }
  return rec;
}

MeanShiftResult ref_mean_shift(ConstFrameView frame, Rgb model, double start_x,
                               double start_y, double window_radius, int max_iters,
                               int stride) {
  MeanShiftResult result;
  result.x = start_x;
  result.y = start_y;
  for (int iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    const int x_lo = std::max(0, static_cast<int>(result.x - window_radius));
    const int x_hi = std::min(frame.width() - 1, static_cast<int>(result.x + window_radius));
    const int y_lo = std::max(0, static_cast<int>(result.y - window_radius));
    const int y_hi = std::min(frame.height() - 1, static_cast<int>(result.y + window_radius));
    double wsum = 0, xsum = 0, ysum = 0;
    for (int y = (y_lo / stride) * stride; y <= y_hi; y += stride) {
      if (y < y_lo) continue;
      for (int x = (x_lo / stride) * stride; x <= x_hi; x += stride) {
        if (x < x_lo) continue;
        const double ddx = x - result.x;
        const double ddy = y - result.y;
        if (ddx * ddx + ddy * ddy > window_radius * window_radius) continue;
        const double w = ref_weight(frame.get(x, y), model);
        if (w < 1e-4) continue;
        wsum += w;
        xsum += w * x;
        ysum += w * y;
      }
    }
    if (wsum < 1e-6) return result;
    const double nx = xsum / wsum;
    const double ny = ysum / wsum;
    const double shift = std::hypot(nx - result.x, ny - result.y);
    result.x = nx;
    result.y = ny;
    result.mass = wsum;
    if (shift < static_cast<double>(stride) / 2.0) {
      result.converged = true;
      break;
    }
  }
  return result;
}

void ref_color_histogram(ConstFrameView frame, std::span<std::byte> histogram_payload,
                         int stride) {
  HistogramView hist(histogram_payload);
  auto bins = hist.bins();
  std::fill(bins.begin(), bins.end(), 0.0f);
  int samples = 0;
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      bins[static_cast<std::size_t>(hist_bin(frame.get(x, y)))] += 1.0f;
      ++samples;
    }
  }
  if (samples > 0) {
    for (float& b : bins) b /= static_cast<float>(samples);
  }
  auto bp = hist.backprojection();
  for (int y = 0; y < frame.height(); y += stride) {
    for (int x = 0; x < frame.width(); x += stride) {
      const float f = bins[static_cast<std::size_t>(hist_bin(frame.get(x, y)))];
      bp[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
          std::byte{static_cast<unsigned char>(std::min(255.0f, f * 2550.0f))};
    }
  }
}

TEST(KernelGolden, DetectTargetMatchesExpReference) {
  SceneGenerator gen(42);
  const auto prev = render(gen, 30, 1);
  const auto cur = render(gen, 31, 1);
  std::vector<std::byte> mask(kMaskBytes);
  frame_difference(ConstFrameView(cur), ConstFrameView(prev), mask, 24, 1);
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 1);
  const ConstHistogramView hist(hist_payload);
  const std::span<const std::byte> no_mask;

  for (int model = 0; model < 2; ++model) {
    // Stride 1 masked (the word-scan path), stride 3 masked (per-pixel
    // masked path), and stride 1 unmasked.
    for (const int stride : {1, 3}) {
      const LocationRecord got = detect_target(ConstFrameView(cur), mask, hist,
                                               gen.model_color(model), model, stride);
      const LocationRecord want = ref_detect_target(ConstFrameView(cur), mask, hist,
                                                    gen.model_color(model), model, stride);
      SCOPED_TRACE(::testing::Message() << "model=" << model << " stride=" << stride);
      ASSERT_EQ(want.found, got.found);
      EXPECT_NEAR(want.x, got.x, 1e-3);
      EXPECT_NEAR(want.y, got.y, 1e-3);
      EXPECT_NEAR(want.confidence, got.confidence, 1e-3);
    }
    const LocationRecord got = detect_target(ConstFrameView(cur), no_mask, hist,
                                             gen.model_color(model), model, 1);
    const LocationRecord want = ref_detect_target(ConstFrameView(cur), no_mask, hist,
                                                  gen.model_color(model), model, 1);
    SCOPED_TRACE(::testing::Message() << "model=" << model << " unmasked");
    ASSERT_EQ(want.found, got.found);
    EXPECT_NEAR(want.x, got.x, 1e-3);
    EXPECT_NEAR(want.y, got.y, 1e-3);
    EXPECT_NEAR(want.confidence, got.confidence, 1e-3);
  }
}

TEST(KernelGolden, MeanShiftMatchesExpReference) {
  SceneGenerator gen(42);
  const auto frame = render(gen, 40, 1);
  const Scene truth = gen.scene_at(40);
  for (int model = 0; model < 2; ++model) {
    for (const int stride : {1, 2}) {
      const double sx = truth.blobs[model].cx + 22;
      const double sy = truth.blobs[model].cy - 17;
      const MeanShiftResult got = mean_shift_track(ConstFrameView(frame),
                                                   gen.model_color(model), sx, sy, 60.0, 15,
                                                   stride);
      const MeanShiftResult want = ref_mean_shift(ConstFrameView(frame),
                                                  gen.model_color(model), sx, sy, 60.0, 15,
                                                  stride);
      SCOPED_TRACE(::testing::Message() << "model=" << model << " stride=" << stride);
      ASSERT_EQ(want.converged, got.converged);
      ASSERT_EQ(want.iterations, got.iterations);
      EXPECT_NEAR(want.x, got.x, 1e-3);
      EXPECT_NEAR(want.y, got.y, 1e-3);
      EXPECT_NEAR(want.mass, got.mass, 1e-3 * std::max(1.0, want.mass));
    }
  }
}

TEST(KernelGolden, ColorHistogramMatchesTwoPassReference) {
  SceneGenerator gen(42);
  for (const int stride : {1, 3, 8}) {
    const auto frame = render(gen, 12, 1);
    std::vector<std::byte> got_payload(kHistogramBytes);
    std::vector<std::byte> want_payload(kHistogramBytes);
    color_histogram(ConstFrameView(frame), got_payload, stride);
    ref_color_histogram(ConstFrameView(frame), want_payload, stride);
    // The fused pass defers normalization but computes the same exact
    // counts, so the payload must match byte for byte.
    EXPECT_EQ(got_payload, want_payload) << "stride=" << stride;
  }
}

TEST(KernelGolden, FrameDifferenceMatchesPerPixelReference) {
  SceneGenerator gen(42);
  const auto a = render(gen, 5, 1);
  const auto b = render(gen, 9, 1);
  for (const int stride : {1, 4}) {
    std::vector<std::byte> got(kMaskBytes);
    std::vector<std::byte> want(kMaskBytes);
    const int got_moving =
        frame_difference(ConstFrameView(b), ConstFrameView(a), got, 24, stride);
    // Reference: the original per-pixel luminance formulation.
    int want_moving = 0;
    const ConstFrameView cur(b), prev(a);
    for (int y = 0; y < cur.height(); y += stride) {
      for (int x = 0; x < cur.width(); x += stride) {
        const int d = std::abs(cur.luminance(x, y) - prev.luminance(x, y));
        const bool on = d > 24;
        want[static_cast<std::size_t>(y) * kWidth + static_cast<std::size_t>(x)] =
            std::byte{static_cast<unsigned char>(on ? 255 : 0)};
        want_moving += on ? 1 : 0;
      }
    }
    EXPECT_EQ(got_moving, want_moving) << "stride=" << stride;
    EXPECT_EQ(got, want) << "stride=" << stride;
  }
}

TEST(FrameView, RowPointerMatchesGet) {
  SceneGenerator gen(6);
  const auto buf = render(gen, 3, 1);
  const ConstFrameView frame(buf);
  for (const int y : {0, 17, kHeight - 1}) {
    const std::uint8_t* row = frame.row(y);
    for (const int x : {0, 1, 333, kWidth - 1}) {
      const Rgb c = frame.get(x, y);
      EXPECT_EQ(row[3 * x + 0], c.r);
      EXPECT_EQ(row[3 * x + 1], c.g);
      EXPECT_EQ(row[3 * x + 2], c.b);
    }
    EXPECT_EQ(frame.row_span(y).size(), static_cast<std::size_t>(kWidth) * 3);
  }
  EXPECT_THROW(frame.row(-1), std::out_of_range);
  EXPECT_THROW(frame.row(kHeight), std::out_of_range);
}

TEST(DetectTarget, EmptyMaskMeansNothingConsidered) {
  SceneGenerator gen(11);
  const auto cur = render(gen, 31, 2);
  std::vector<std::byte> mask(kMaskBytes);  // all zero
  std::vector<std::byte> hist_payload(kHistogramBytes);
  color_histogram(ConstFrameView(cur), hist_payload, 2);
  const LocationRecord rec = detect_target(ConstFrameView(cur), mask,
                                           ConstHistogramView(hist_payload),
                                           gen.model_color(0), 0, 2);
  EXPECT_FALSE(rec.found);
}

}  // namespace
}  // namespace stampede::vision
