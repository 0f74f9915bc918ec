/// \file checks.hpp
/// \brief Output checks of the end-to-end benchmark: every sink result is
///        verified, and each failing check is counted under its name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "vision/frame.hpp"
#include "vision/records.hpp"

namespace perfbench {

/// Relay item layout: [ts:int64][due_ns:int64][seeded pattern ...].
inline constexpr std::size_t kRelayHeaderBytes = 16;

/// Writes a relay payload for timestamp `ts` due at `due_ns`; the pattern
/// after the header is a pure function of (seed, ts).
void fill_relay_payload(std::span<std::byte> data, std::uint64_t seed, std::int64_t ts,
                        std::int64_t due_ns);

/// Reads the due instant stamped by fill_relay_payload (0 if too short).
std::int64_t relay_due_ns(std::span<const std::byte> data);

/// Verifies a relay payload delivered under timestamp `ts`. Returns the
/// name of the first failing check, or nullptr when intact.
const char* check_relay_payload(std::span<const std::byte> data, std::size_t expect_bytes,
                                std::uint64_t seed, std::int64_t ts);

/// In-order, exactly-once delivery check for a get_next consumer of a
/// source that offers timestamps 0, 1, 2, ...
class SequenceCheck {
 public:
  /// Returns the failing check's name ("duplicate", "reordered", "lost"),
  /// or nullptr when `ts` is the next expected timestamp.
  const char* next(std::int64_t ts);
  /// Timestamps delivered in order so far (the next expected one).
  std::int64_t expected() const { return expected_; }

 private:
  std::int64_t expected_ = 0;
};

/// Verifies one displayed tracker record carried by an item with
/// timestamp `item_ts` from detector `model`: the record names that item
/// and model, its ground truth matches the scene at that frame, and a
/// reported target lies within `bound_px` of the truth. A record that
/// reports no target passes (the caller counts it as a miss). Returns the
/// failing check's name, or nullptr.
const char* check_tracker_record(const stampede::vision::LocationRecord& rec,
                                 std::int64_t item_ts, int model,
                                 const stampede::vision::Scene& truth, double bound_px);

/// Failure counts by check name.
class CheckTally {
 public:
  void fail(const char* check) { ++by_name_[check]; ++failed_; }
  std::int64_t failed() const { return failed_; }
  const std::map<std::string, std::int64_t>& by_name() const { return by_name_; }
  /// "name=count,name=count" (empty when nothing failed).
  std::string summary() const;

 private:
  std::map<std::string, std::int64_t> by_name_;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench
