/// \file test_channel_storage.cpp
/// \brief Randomized property test for the flat channel storage.
///
/// The channel replaced its std::map storage with a sorted deque plus an
/// incremental collector (frontier memoization + a dirty flag). Those are
/// pure representation changes: observable behavior must be identical to
/// the obvious map-based implementation. This test drives a channel and a
/// straightforward reference model with the same randomized interleaving
/// of put / get_latest / get_next / get_window / get_at / get_nearest /
/// raise_guarantee and checks, after every operation, that the returned
/// timestamps, occupancy, newest timestamp, and frontier all agree —
/// under both Transparent and Dead-Timestamp GC, with in-order,
/// out-of-order, and duplicate-timestamp puts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "test_support.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

/// Eager map-based model of the channel's storage semantics. Collects on
/// exactly the operations the channel collects on; the channel's
/// incremental bookkeeping must never be distinguishable from this.
class RefModel {
 public:
  RefModel(gc::Kind kind, int consumers)
      : gc_(kind), cursor_(consumers, kNoTimestamp), guarantee_(consumers, 0) {}

  Timestamp frontier() const {
    if (guarantee_.empty()) return std::numeric_limits<Timestamp>::max();
    return *std::min_element(guarantee_.begin(), guarantee_.end());
  }

  /// Returns true when the item is stored (not dead on arrival).
  bool put(Timestamp ts) {
    const bool dead =
        gc_ == gc::Kind::kDeadTimestamp && !cursor_.empty() && ts < frontier();
    if (!dead) entries_[ts] = RefEntry{};  // overwrite resets masks
    collect();
    return !dead;
  }

  bool has_newer(int c) const {
    return !entries_.empty() && entries_.rbegin()->first > cursor_[static_cast<std::size_t>(c)];
  }

  Timestamp get_latest(int c) {
    const std::uint64_t bit = 1ULL << c;
    const Timestamp target = entries_.rbegin()->first;
    for (auto it = entries_.upper_bound(cursor_[static_cast<std::size_t>(c)]);
         it != entries_.end() && it->first < target; ++it) {
      if ((it->second.consumed & bit) == 0) it->second.skipped |= bit;
    }
    entries_.rbegin()->second.consumed |= bit;
    cursor_[static_cast<std::size_t>(c)] = target;
    raise(c, target + 1);
    collect();
    return target;
  }

  Timestamp get_next(int c) {
    const std::uint64_t bit = 1ULL << c;
    auto it = entries_.upper_bound(cursor_[static_cast<std::size_t>(c)]);
    const Timestamp target = it->first;
    it->second.consumed |= bit;
    cursor_[static_cast<std::size_t>(c)] = target;
    raise(c, target + 1);
    collect();
    return target;
  }

  /// Returns the window's timestamps, ascending (what get_window delivers).
  std::vector<Timestamp> get_window(int c, std::size_t window) {
    const std::uint64_t bit = 1ULL << c;
    const Timestamp target = entries_.rbegin()->first;
    const std::size_t count = std::min(window, entries_.size());
    auto first = entries_.end();
    for (std::size_t i = 0; i < count; ++i) --first;
    const Timestamp window_tail = first->first;

    // Every entry strictly before the window tail that this consumer never
    // consumed is skipped: the unseen ones the cursor jumps, and the older
    // window members the window has moved past.
    for (auto it = entries_.begin(); it != entries_.end() && it->first < window_tail; ++it) {
      if ((it->second.consumed & bit) == 0) it->second.skipped |= bit;
    }
    entries_.rbegin()->second.consumed |= bit;
    cursor_[static_cast<std::size_t>(c)] = target;
    raise(c, window_tail);

    std::vector<Timestamp> out;
    for (auto it = first; it != entries_.end(); ++it) out.push_back(it->first);
    collect();
    return out;
  }

  /// kNoTimestamp when absent (get_at does not collect).
  Timestamp get_at(int c, Timestamp ts) {
    auto it = entries_.find(ts);
    if (it == entries_.end()) return kNoTimestamp;
    it->second.consumed |= 1ULL << c;
    return ts;
  }

  /// kNoTimestamp when nothing is within tolerance (does not collect).
  Timestamp get_nearest(int c, Timestamp ts, Timestamp tolerance) {
    auto best = entries_.end();
    Timestamp best_dist = 0;
    auto consider = [&](std::map<Timestamp, RefEntry>::iterator it) {
      if (it == entries_.end()) return;
      const Timestamp dist = it->first >= ts ? it->first - ts : ts - it->first;
      if (dist > tolerance) return;
      if (best == entries_.end() || dist < best_dist ||
          (dist == best_dist && it->first > best->first)) {
        best = it;
        best_dist = dist;
      }
    };
    auto after = entries_.lower_bound(ts);
    consider(after);
    if (after != entries_.begin()) consider(std::prev(after));
    if (best == entries_.end()) return kNoTimestamp;
    best->second.consumed |= 1ULL << c;
    return best->first;
  }

  void raise_guarantee(int c, Timestamp g) {
    raise(c, g);
    const std::uint64_t bit = 1ULL << c;
    for (auto it = entries_.begin(); it != entries_.end() && it->first < g; ++it) {
      if ((it->second.consumed & bit) == 0) it->second.skipped |= bit;
    }
    collect();
  }

  std::size_t size() const { return entries_.size(); }
  Timestamp latest() const {
    return entries_.empty() ? kNoTimestamp : entries_.rbegin()->first;
  }

 private:
  struct RefEntry {
    std::uint64_t consumed = 0;
    std::uint64_t skipped = 0;
  };

  void raise(int c, Timestamp g) {
    Timestamp& cur = guarantee_[static_cast<std::size_t>(c)];
    cur = std::max(cur, g);
  }

  void collect() {
    const Timestamp f = frontier();
    const std::uint64_t all = (1ULL << cursor_.size()) - 1;
    for (auto it = entries_.begin(); it != entries_.end() && it->first < f;) {
      const std::uint64_t passed = it->second.consumed | it->second.skipped;
      const bool collectible =
          gc_ == gc::Kind::kDeadTimestamp || (passed & all) == all;
      it = collectible ? entries_.erase(it) : std::next(it);
    }
  }

  gc::Kind gc_;
  std::map<Timestamp, RefEntry> entries_;
  std::vector<Timestamp> cursor_;
  std::vector<Timestamp> guarantee_;
};

constexpr int kConsumers = 3;
constexpr int kOps = 4000;

void run_interleaving(gc::Kind kind, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "gc=" << gc::to_string(kind) << " seed=" << seed);
  Env env;
  env.ctx.gc = kind;
  auto ch = env.make_channel();
  ch->register_producer(2000);
  for (int c = 0; c < kConsumers; ++c) {
    ASSERT_EQ(c, ch->register_consumer(3000 + c, 0));
  }
  RefModel model(kind, kConsumers);

  std::mt19937_64 rng(seed);
  Timestamp next_ts = 0;

  const auto put = [&] {
    // Mostly monotonic timestamps with occasional gaps, out-of-order
    // inserts, and duplicates — all three storage paths.
    Timestamp ts;
    const int kind_roll = static_cast<int>(rng() % 10);
    if (kind_roll < 7 || next_ts == 0) {
      ts = next_ts;
      next_ts += 1 + static_cast<Timestamp>(rng() % 3);
    } else if (kind_roll < 9) {
      ts = std::max<Timestamp>(0, next_ts - 1 - static_cast<Timestamp>(rng() % 12));
    } else {
      ts = std::max<Timestamp>(0, next_ts - 1);  // likely duplicate
    }
    const bool want_stored = model.put(ts);
    const auto result = ch->put(env.make_item(ts), never_stop());
    ASSERT_EQ(want_stored, result.stored) << "put ts=" << ts;
  };

  for (int op = 0; op < kOps; ++op) {
    const int c = static_cast<int>(rng() % kConsumers);
    switch (rng() % 8) {
      case 0:
      case 1:
        put();
        break;
      case 2: {
        if (!model.has_newer(c)) break;  // would block
        const Timestamp want = model.get_latest(c);
        const auto result = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
        ASSERT_TRUE(result.item);
        ASSERT_EQ(want, result.item->ts());
        break;
      }
      case 3: {
        if (!model.has_newer(c)) break;
        const Timestamp want = model.get_next(c);
        const auto result = ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop());
        ASSERT_TRUE(result.item);
        ASSERT_EQ(want, result.item->ts());
        break;
      }
      case 4: {
        if (!model.has_newer(c)) break;
        const std::size_t window = 1 + rng() % 5;
        const std::vector<Timestamp> want = model.get_window(c, window);
        const auto result = ch->get_window(c, window, aru::kUnknownStp, never_stop());
        ASSERT_EQ(want.size(), result.items.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(want[i], result.items[i]->ts()) << "window position " << i;
        }
        break;
      }
      case 5: {
        const Timestamp probe = static_cast<Timestamp>(rng() % (next_ts + 1));
        const Timestamp want = model.get_at(c, probe);
        const auto result = ch->get_at(c, probe, aru::kUnknownStp);
        ASSERT_EQ(want != kNoTimestamp, result.item != nullptr) << "probe ts=" << probe;
        if (result.item) {
          ASSERT_EQ(want, result.item->ts());
        }
        break;
      }
      case 6: {
        const Timestamp probe = static_cast<Timestamp>(rng() % (next_ts + 1));
        const Timestamp tolerance = static_cast<Timestamp>(rng() % 6);
        const Timestamp want = model.get_nearest(c, probe, tolerance);
        const auto result = ch->get_nearest(c, probe, tolerance, aru::kUnknownStp);
        ASSERT_EQ(want != kNoTimestamp, result.item != nullptr)
            << "probe ts=" << probe << " tol=" << tolerance;
        if (result.item) {
          ASSERT_EQ(want, result.item->ts());
        }
        break;
      }
      case 7: {
        const Timestamp g = static_cast<Timestamp>(rng() % (next_ts + 2));
        model.raise_guarantee(c, g);
        ch->raise_guarantee(c, g);
        break;
      }
    }
    // After every operation the channel must be indistinguishable from the
    // eager model: same occupancy, same newest timestamp, same frontier.
    ASSERT_EQ(model.size(), ch->size()) << "after op " << op;
    ASSERT_EQ(model.latest(), ch->latest_ts()) << "after op " << op;
    ASSERT_EQ(model.frontier(), ch->frontier()) << "after op " << op;
  }
}

TEST(ChannelStorageProperty, MatchesReferenceModelUnderTransparentGc) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    run_interleaving(gc::Kind::kTransparent, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ChannelStorageProperty, MatchesReferenceModelUnderDeadTimestampGc) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    run_interleaving(gc::Kind::kDeadTimestamp, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace stampede
