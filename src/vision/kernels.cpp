#include "vision/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stampede::vision {

namespace {

/// Grayscale intensity of an interleaved-RGB pixel (matches
/// FrameView::luminance).
inline int luma(const std::uint8_t* px) {
  return (static_cast<int>(px[0]) * 299 + static_cast<int>(px[1]) * 587 +
          static_cast<int>(px[2]) * 114) /
         1000;
}

/// Histogram bin for an interleaved-RGB pixel (matches hist_bin(Rgb);
/// 16 bins per axis reduces to a shift).
inline int pixel_bin(const std::uint8_t* px) {
  return ((px[0] >> 4) << 8) | ((px[1] >> 4) << 4) | (px[2] >> 4);
}

/// Per-channel Gaussian weight tables for w = exp(-‖c - model‖²/2σ²).
/// exp distributes over the sum of per-channel squared distances, so the
/// product lut.r[c.r]·lut.g[c.g]·lut.b[c.b] is the same weight computed
/// with three loads and two multiplies per pixel instead of a std::exp —
/// building the tables costs 768 exp calls total, versus one per sampled
/// pixel in the direct form.
struct ColorWeightLut {
  double r[256];
  double g[256];
  double b[256];

  void build(Rgb model, double sigma) {
    const double inv_two_sigma2 = 1.0 / (2.0 * sigma * sigma);
    for (int v = 0; v < 256; ++v) {
      const double dr = static_cast<double>(v - model.r);
      const double dg = static_cast<double>(v - model.g);
      const double db = static_cast<double>(v - model.b);
      r[v] = std::exp(-dr * dr * inv_two_sigma2);
      g[v] = std::exp(-dg * dg * inv_two_sigma2);
      b[v] = std::exp(-db * db * inv_two_sigma2);
    }
  }

  double weight(const std::uint8_t* px) const { return r[px[0]] * g[px[1]] * b[px[2]]; }
};

/// Tables for the two most recent model colors this thread used (σ fixed
/// at 40). A tracker queries the same one or two models every frame, so at
/// coarse strides — where the table build would cost more than the scan —
/// steady state pays nothing.
const ColorWeightLut& weight_lut(Rgb model) {
  struct Slot {
    std::uint32_t key = 0xFF000000;  // unreachable: real keys are 24-bit
    ColorWeightLut lut;
  };
  static thread_local Slot slots[2];
  static thread_local int last = 0;
  const std::uint32_t key = (static_cast<std::uint32_t>(model.r) << 16) |
                            (static_cast<std::uint32_t>(model.g) << 8) | model.b;
  if (slots[last].key == key) return slots[last].lut;
  const int other = 1 - last;
  last = other;
  if (slots[other].key != key) {
    slots[other].key = key;
    slots[other].lut.build(model, 40.0);
  }
  return slots[other].lut;
}

}  // namespace

int frame_difference(ConstFrameView cur, ConstFrameView prev, std::span<std::byte> mask_out,
                     int threshold, int stride) {
  if (mask_out.size() < kMaskBytes) {
    throw std::invalid_argument("frame_difference: mask buffer too small");
  }
  int moving = 0;
  const int height = cur.height();
  const int width = cur.width();
  for (int y = 0; y < height; y += stride) {
    const std::uint8_t* cur_row = cur.row(y);
    const std::uint8_t* prev_row = prev.row(y);
    std::byte* mask_row = mask_out.data() + static_cast<std::size_t>(y) * kWidth;
    for (int x = 0; x < width; x += stride) {
      const int d = std::abs(luma(cur_row + 3 * x) - luma(prev_row + 3 * x));
      const bool on = d > threshold;
      mask_row[x] = std::byte{static_cast<unsigned char>(on ? 255 : 0)};
      moving += on ? 1 : 0;
    }
  }
  return moving;
}

void copy_sampled_rows(ConstFrameView src, std::span<std::byte> dst, int stride) {
  if (dst.size() < kFrameBytes) {
    throw std::invalid_argument("copy_sampled_rows: destination too small");
  }
  const std::size_t row_bytes = static_cast<std::size_t>(src.width()) * 3;
  for (int y = 0; y < src.height(); y += stride) {
    std::memcpy(dst.data() + static_cast<std::size_t>(y) * row_bytes, src.row(y), row_bytes);
  }
}

void color_histogram(ConstFrameView frame, std::span<std::byte> histogram_payload,
                     int stride) {
  HistogramView hist(histogram_payload);
  auto bins = hist.bins();
  std::fill(bins.begin(), bins.end(), 0.0f);

  // Single pass over the frame: integer bin counts accumulate while each
  // sampled pixel's bin index is parked in a scratch list (reused across
  // calls), so the backprojection pass below never re-reads frame bytes or
  // redoes the bin arithmetic. Counts stay exact in float (well under
  // 2^24 samples), so deferred normalization matches the old
  // accumulate-then-divide form bit for bit.
  static thread_local std::vector<std::uint16_t> bin_scratch;
  bin_scratch.clear();
  const int height = frame.height();
  const int width = frame.width();
  bin_scratch.reserve(static_cast<std::size_t>((height + stride - 1) / stride) *
                      static_cast<std::size_t>((width + stride - 1) / stride));

  std::array<std::int32_t, kHistBins> counts{};
  int samples = 0;
  for (int y = 0; y < height; y += stride) {
    const std::uint8_t* row = frame.row(y);
    for (int x = 0; x < width; x += stride) {
      const auto bin = static_cast<std::uint16_t>(pixel_bin(row + 3 * x));
      ++counts[bin];
      bin_scratch.push_back(bin);
      ++samples;
    }
  }

  // Normalized frequencies plus a per-bin byte value for the
  // backprojection map, so each output pixel is a single table lookup.
  std::array<std::byte, kHistBins> bp_lut;
  for (std::size_t i = 0; i < static_cast<std::size_t>(kHistBins); ++i) {
    if (samples > 0) bins[i] = static_cast<float>(counts[i]) / static_cast<float>(samples);
    bp_lut[i] = std::byte{static_cast<unsigned char>(std::min(255.0f, bins[i] * 2550.0f))};
  }

  auto bp = hist.backprojection();
  std::size_t k = 0;
  for (int y = 0; y < height; y += stride) {
    std::byte* bp_row = bp.data() + static_cast<std::size_t>(y) * kWidth;
    for (int x = 0; x < width; x += stride) {
      bp_row[x] = bp_lut[bin_scratch[k++]];
    }
  }
}

LocationRecord detect_target(ConstFrameView frame, std::span<const std::byte> mask,
                             ConstHistogramView histogram, Rgb model, int model_index,
                             int stride) {
  const bool use_mask = mask.size() >= kMaskBytes;
  const auto bins = histogram.bins();
  // Gaussian-ish color similarity via per-channel weight tables.
  const ColorWeightLut& lut = weight_lut(model);

  double wsum = 0.0, xsum = 0.0, ysum = 0.0;
  int considered = 0;
  const int height = frame.height();
  const int width = frame.width();
  for (int y = 0; y < height; y += stride) {
    const std::uint8_t* row = frame.row(y);
    const std::byte* mask_row =
        use_mask ? mask.data() + static_cast<std::size_t>(y) * kWidth : nullptr;

    const auto process = [&](int x) {
      ++considered;
      const std::uint8_t* px = row + 3 * x;
      double w = lut.weight(px);
      // Discount colors that are globally common (background): rarity from
      // the frame histogram.
      const float freq = bins[static_cast<std::size_t>(pixel_bin(px))];
      w *= 1.0 / (1.0 + 50.0 * static_cast<double>(freq));
      if (w < 1e-4) return;
      wsum += w;
      xsum += w * x;
      ysum += w * y;
    };

    if (mask_row == nullptr) {
      for (int x = 0; x < width; x += stride) process(x);
    } else if (stride == 1) {
      // Dense scan: one 8-byte load classifies eight mask bytes, and a bit
      // walk visits only the masked-in pixels (in ascending x, so the
      // accumulation order — and thus the result — is unchanged). This
      // avoids a hard-to-predict per-pixel branch on a noisy mask.
      int x = 0;
      const int body_end = width & ~7;
      for (; x < body_end; x += 8) {
        std::uint64_t word;
        std::memcpy(&word, mask_row + x, sizeof(word));
        if (word == 0) continue;
        // High bit of each byte set iff that mask byte is nonzero.
        std::uint64_t on =
            (((word & 0x7F7F7F7F7F7F7F7FULL) + 0x7F7F7F7F7F7F7F7FULL) | word) &
            0x8080808080808080ULL;
        while (on) {
          process(x + (std::countr_zero(on) >> 3));
          on &= on - 1;
        }
      }
      for (; x < width; ++x) {
        if (static_cast<unsigned char>(mask_row[x]) != 0) process(x);
      }
    } else {
      for (int x = 0; x < width; x += stride) {
        if (static_cast<unsigned char>(mask_row[x]) != 0) process(x);
      }
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

MeanShiftResult mean_shift_track(ConstFrameView frame, Rgb model, double start_x,
                                 double start_y, double window_radius, int max_iters,
                                 int stride) {
  if (window_radius <= 0 || max_iters <= 0 || stride <= 0) {
    throw std::invalid_argument("mean_shift_track: bad parameters");
  }
  MeanShiftResult result;
  result.x = start_x;
  result.y = start_y;
  // The color model is fixed across iterations: one table build serves the
  // whole track.
  const ColorWeightLut& lut = weight_lut(model);
  const double radius2 = window_radius * window_radius;

  for (int iter = 0; iter < max_iters; ++iter) {
    ++result.iterations;
    const int x_lo = std::max(0, static_cast<int>(result.x - window_radius));
    const int x_hi = std::min(frame.width() - 1, static_cast<int>(result.x + window_radius));
    const int y_lo = std::max(0, static_cast<int>(result.y - window_radius));
    const int y_hi = std::min(frame.height() - 1, static_cast<int>(result.y + window_radius));

    double wsum = 0, xsum = 0, ysum = 0;
    // Scan the window on the stride grid.
    for (int y = (y_lo / stride) * stride; y <= y_hi; y += stride) {
      if (y < y_lo) continue;
      const std::uint8_t* row = frame.row(y);
      const double ddy = y - result.y;
      const double ddy2 = ddy * ddy;
      for (int x = (x_lo / stride) * stride; x <= x_hi; x += stride) {
        if (x < x_lo) continue;
        const double ddx = x - result.x;
        if (ddx * ddx + ddy2 > radius2) continue;
        const double w = lut.weight(row + 3 * x);
        if (w < 1e-4) continue;
        wsum += w;
        xsum += w * x;
        ysum += w * y;
      }
    }
    if (wsum < 1e-6) return result;  // lost: no mass in the window

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

std::vector<Blob8> connected_components(std::span<const std::byte> mask, int stride,
                                        int min_pixels) {
  if (stride <= 0) throw std::invalid_argument("connected_components: bad stride");
  if (mask.size() < kMaskBytes) {
    throw std::invalid_argument("connected_components: mask buffer too small");
  }
  const int gw = (kWidth + stride - 1) / stride;
  const int gh = (kHeight + stride - 1) / stride;

  // Union-find over the stride grid.
  std::vector<int> parent(static_cast<std::size_t>(gw) * gh);
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  auto find = [&](int a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      parent[static_cast<std::size_t>(a)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(a)])];
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  auto unite = [&](int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); };

  auto set_at = [&](int gx, int gy) {
    const std::size_t off = static_cast<std::size_t>(gy * stride) * kWidth +
                            static_cast<std::size_t>(gx * stride);
    return static_cast<unsigned char>(mask[off]) != 0;
  };

  for (int gy = 0; gy < gh; ++gy) {
    for (int gx = 0; gx < gw; ++gx) {
      if (!set_at(gx, gy)) continue;
      const int me = gy * gw + gx;
      // 8-connectivity to already-visited neighbours.
      for (const auto& [dx, dy] :
           {std::pair{-1, 0}, std::pair{-1, -1}, std::pair{0, -1}, std::pair{1, -1}}) {
        const int nx = gx + dx;
        const int ny = gy + dy;
        if (nx < 0 || nx >= gw || ny < 0) continue;
        if (set_at(nx, ny)) unite(me, ny * gw + nx);
      }
    }
  }

  // Accumulate per-root statistics.
  struct Acc {
    int pixels = 0;
    double sx = 0, sy = 0;
    int min_x = kWidth, min_y = kHeight, max_x = 0, max_y = 0;
  };
  std::unordered_map<int, Acc> accs;
  for (int gy = 0; gy < gh; ++gy) {
    for (int gx = 0; gx < gw; ++gx) {
      if (!set_at(gx, gy)) continue;
      Acc& a = accs[find(gy * gw + gx)];
      const int px = gx * stride;
      const int py = gy * stride;
      ++a.pixels;
      a.sx += px;
      a.sy += py;
      a.min_x = std::min(a.min_x, px);
      a.min_y = std::min(a.min_y, py);
      a.max_x = std::max(a.max_x, px);
      a.max_y = std::max(a.max_y, py);
    }
  }

  std::vector<Blob8> blobs;
  for (const auto& [root, a] : accs) {
    if (a.pixels < min_pixels) continue;
    blobs.push_back(Blob8{.pixels = a.pixels,
                          .cx = a.sx / a.pixels,
                          .cy = a.sy / a.pixels,
                          .min_x = a.min_x,
                          .min_y = a.min_y,
                          .max_x = a.max_x,
                          .max_y = a.max_y});
  }
  std::sort(blobs.begin(), blobs.end(),
            [](const Blob8& a, const Blob8& b) { return a.pixels > b.pixels; });
  return blobs;
}

}  // namespace stampede::vision
