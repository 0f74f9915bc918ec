#include "checks.hpp"

#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Pattern word `i` of the payload for (seed, ts).
std::uint64_t pattern_word(std::uint64_t seed, std::int64_t ts, std::size_t i) {
  return splitmix64(seed ^ (static_cast<std::uint64_t>(ts) * 0x2545f4914f6cdd1dULL) ^
                    (static_cast<std::uint64_t>(i) << 48));
}

std::int64_t read_i64(std::span<const std::byte> data, std::size_t off) {
  std::int64_t v = 0;
  std::memcpy(&v, data.data() + off, sizeof(v));
  return v;
}

}  // namespace

void fill_relay_payload(std::span<std::byte> data, std::uint64_t seed, std::int64_t ts,
                        std::int64_t due_ns) {
  if (data.size() < kRelayHeaderBytes) return;
  std::memcpy(data.data(), &ts, sizeof(ts));
  std::memcpy(data.data() + 8, &due_ns, sizeof(due_ns));
  const std::size_t words = (data.size() - kRelayHeaderBytes) / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = pattern_word(seed, ts, i);
    std::memcpy(data.data() + kRelayHeaderBytes + 8 * i, &w, sizeof(w));
  }
}

std::int64_t relay_due_ns(std::span<const std::byte> data) {
  return data.size() < kRelayHeaderBytes ? 0 : read_i64(data, 8);
}

const char* check_relay_payload(std::span<const std::byte> data, std::size_t expect_bytes,
                                std::uint64_t seed, std::int64_t ts) {
  if (data.size() != expect_bytes || data.size() < kRelayHeaderBytes) return "payload_size";
  if (read_i64(data, 0) != ts) return "payload_ts";
  const std::size_t words = (data.size() - kRelayHeaderBytes) / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, data.data() + kRelayHeaderBytes + 8 * i, sizeof(w));
    if (w != pattern_word(seed, ts, i)) return "payload_bytes";
  }
  return nullptr;
}

const char* SequenceCheck::next(std::int64_t ts) {
  if (ts == expected_) {
    ++expected_;
    return nullptr;
  }
  if (ts < expected_) return "duplicate";
  // Skipped ahead: everything in [expected_, ts) never arrived. Resync so
  // one lost run counts once, not for every later item.
  expected_ = ts + 1;
  return "lost";
}

const char* check_tracker_record(const stampede::vision::LocationRecord& rec,
                                 std::int64_t item_ts, int model,
                                 const stampede::vision::Scene& truth, double bound_px) {
  if (rec.frame_ts != item_ts) return "record_ts";
  if (rec.model != model) return "record_model";
  const stampede::vision::Blob& blob = truth.blobs[model];
  if (std::abs(rec.truth_x - blob.cx) > 1e-6 || std::abs(rec.truth_y - blob.cy) > 1e-6) {
    return "record_truth";
  }
  if (rec.found == 0) return nullptr;
  if (std::hypot(rec.x - rec.truth_x, rec.y - rec.truth_y) > bound_px) return "target_position";
  return nullptr;
}

std::string CheckTally::summary() const {
  std::string out;
  for (const auto& [name, n] : by_name_) {
    if (!out.empty()) out += ',';
    out += name + "=" + std::to_string(n);
  }
  return out;
}

}  // namespace perfbench
