/// \file test_wire.cpp
/// \brief Wire-protocol property tests: randomized encode/decode round
///        trips for every message type, boundary-size id lists, split
///        header/envelope/payload framing invariants, and the
///        defensive-decode guarantee — a truncated or corrupt buffer must
///        return false with a diagnostic, never crash or read out of
///        bounds.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace stampede::net {
namespace {

// ---------------------------------------------------------------------------
// Random message generators
// ---------------------------------------------------------------------------

std::string random_name(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

std::vector<std::byte> random_bytes(Xoshiro256& rng, std::size_t max_len) {
  const std::size_t len = rng.below(max_len + 1);
  std::vector<std::byte> p(len);
  for (auto& b : p) b = static_cast<std::byte>(rng.below(256));
  return p;
}

WireItem random_item(Xoshiro256& rng, std::size_t max_payload = 1 << 20) {
  WireItem item;
  item.ts = static_cast<Timestamp>(rng.next() >> 8);
  item.produce_cost_ns = static_cast<std::int64_t>(rng.next() >> 16);
  item.payload_bytes = static_cast<std::uint32_t>(rng.below(max_payload + 1));
  // Half the items name an offset in an arena, and the arena's token,
  // instead of a tail.
  if (rng.below(2) == 1) {
    item.arena_offset = rng.next() >> 1;
    item.arena_token = rng.next();
  }
  return item;
}

/// Up to kMaxLeases lease ids, zero and repeated ids included:
/// the codec carries them verbatim and the server ignores what it does
/// not hold.
std::vector<std::uint64_t> random_leases(Xoshiro256& rng) {
  std::vector<std::uint64_t> ids(rng.below(kMaxLeases + 1));
  for (auto& id : ids) id = rng.below(4) == 0 ? 0 : rng.next();
  if (ids.size() > 1 && rng.below(2) == 1) ids.back() = ids.front();
  return ids;
}

ArenaRef random_arena(Xoshiro256& rng) {
  return {.pid = static_cast<std::int32_t>(rng.next()),
          .fd = static_cast<std::int32_t>(rng.next()),
          .token = rng.next(),
          .size = rng.next()};
}

/// Up to kMaxArenas arena tokens.
std::vector<std::uint64_t> random_tokens(Xoshiro256& rng) {
  std::vector<std::uint64_t> tokens(rng.below(kMaxArenas + 1));
  for (auto& t : tokens) t = rng.next();
  return tokens;
}

/// The payload tail a frame's header must announce for a given message:
/// none when the item's bytes wait in the sender's arena.
std::uint32_t tail_of(const WireItem& item) {
  return item.arena_offset == kNoArenaOffset ? item.payload_bytes : 0;
}
std::uint32_t payload_len_of(const PutMsg& m) { return tail_of(m.item); }
std::uint32_t payload_len_of(const GetReplyMsg& m) {
  return m.has_item ? tail_of(m.item) : 0;
}
template <typename Msg>
std::uint32_t payload_len_of(const Msg&) {
  return 0;
}

/// Splits a frame into (header, envelope) and checks the header —
/// including that the announced payload tail matches the message.
std::span<const std::byte> body_of(const FrameBuf& frame, MsgType expect,
                                   std::uint32_t expect_payload_len) {
  FrameHeader h;
  std::string err;
  EXPECT_GE(frame.len, kHeaderBytes);
  EXPECT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, &err)) << err;
  EXPECT_EQ(h.type, expect);
  EXPECT_EQ(h.body_len, frame.len - kHeaderBytes);
  EXPECT_EQ(h.payload_len, expect_payload_len);
  return frame.span().subspan(kHeaderBytes);
}

template <typename Msg>
void expect_roundtrip(const Msg& in, MsgType type) {
  const FrameBuf frame = encode(in);
  Msg out;
  std::string err;
  ASSERT_TRUE(decode(body_of(frame, type, payload_len_of(in)), out, &err)) << err;
  EXPECT_EQ(in, out);
}

/// Every prefix of a valid body must decode to false — never crash, throw,
/// or succeed (the codec rejects trailing truncation as much as a short
/// length field).
template <typename Msg>
void expect_truncation_safe(const FrameBuf& frame) {
  const auto body = frame.span().subspan(kHeaderBytes);
  for (std::size_t n = 0; n < body.size(); ++n) {
    Msg out;
    std::string err;
    EXPECT_FALSE(decode(body.first(n), out, &err))
        << "decode of a " << n << "/" << body.size() << " byte prefix succeeded";
    EXPECT_FALSE(err.empty());
  }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(Wire, HelloRoundTripRandomized) {
  Xoshiro256 rng(0xA11CE);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(HelloMsg{.channel = random_name(rng, kMaxNameBytes),
                              .producer_key = static_cast<std::int32_t>(rng.next()),
                              .consumer_key = static_cast<std::int32_t>(rng.next()),
                              .session = rng.next(),
                              .start_seq = rng.next(),
                              .arena = random_arena(rng)},
                     MsgType::kHello);
  }
}

TEST(Wire, HelloAckRoundTripRandomized) {
  Xoshiro256 rng(0xB0B);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(HelloAckMsg{.ok = rng.below(2) == 1,
                                 .credits = static_cast<std::uint32_t>(rng.next()),
                                 .arena = random_arena(rng),
                                 .peer_mapped = rng.below(2) == 1,
                                 .instance = rng.next()},
                     MsgType::kHelloAck);
  }
}

TEST(Wire, PutRoundTripRandomized) {
  Xoshiro256 rng(0xCAFE);
  for (int i = 0; i < 100; ++i) {
    expect_roundtrip(PutMsg{.seq = rng.next(), .item = random_item(rng)}, MsgType::kPut);
  }
}

TEST(Wire, PutAckRoundTripRandomized) {
  Xoshiro256 rng(0xDEAD);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(PutAckMsg{.closed = rng.below(2) == 1,
                               .summary = Nanos{static_cast<std::int64_t>(rng.next() >> 8)},
                               .cum_seq = rng.next(),
                               .credits = static_cast<std::uint32_t>(rng.next()),
                               .held = random_leases(rng)},
                     MsgType::kPutAck);
  }
}

TEST(Wire, GetRoundTripRandomized) {
  Xoshiro256 rng(0xF00D);
  for (int i = 0; i < 200; ++i) {
    expect_roundtrip(GetMsg{.consumer_summary = Nanos{static_cast<std::int64_t>(rng.next())},
                            .guarantee = static_cast<Timestamp>(rng.next() >> 4),
                            .arenas = random_tokens(rng)},
                     MsgType::kGet);
  }
}

TEST(Wire, GetReplyRoundTripRandomized) {
  Xoshiro256 rng(0xFEED);
  for (int i = 0; i < 100; ++i) {
    GetReplyMsg m{.has_item = rng.below(2) == 1,
                  .closed = rng.below(2) == 1,
                  .summary = Nanos{static_cast<std::int64_t>(rng.next() >> 8)},
                  // Any i64, negative garbage included: the codec carries
                  // it verbatim and the consumer clamps it.
                  .waited = Nanos{static_cast<std::int64_t>(rng.next())},
                  .lease = rng.below(3) == 0 ? 0 : rng.next()};
    if (m.has_item) m.item = random_item(rng);
    if (rng.below(2) == 1) m.offer = random_arena(rng);
    expect_roundtrip(m, MsgType::kGetReply);
  }
}

TEST(Wire, HeartbeatHasAnEmptyEnvelope) {
  const FrameBuf frame = encode_heartbeat();
  EXPECT_EQ(frame.len, kHeaderBytes);
  FrameHeader h;
  std::string err;
  ASSERT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, &err)) << err;
  EXPECT_EQ(h.type, MsgType::kHeartbeat);
  EXPECT_EQ(h.body_len, 0u);
  EXPECT_EQ(h.payload_len, 0u);
}

TEST(Wire, GetReplyWithoutAnItemCarriesNoItemBytes) {
  // has_item, closed, summary, waited, lease and the offer: no item
  // envelope rides along when there is no item.
  const GetReplyMsg empty{.closed = true, .summary = millis(4), .waited = millis(2)};
  expect_roundtrip(empty, MsgType::kGetReply);
  const FrameBuf frame = encode(empty);
  EXPECT_EQ(frame.len - kHeaderBytes, 1u + 1u + 8u + 8u + 8u + 24u);

  GetReplyMsg full = empty;
  full.has_item = true;
  full.item.payload_bytes = 64;
  const FrameBuf with_item = encode(full);
  const std::size_t item_bytes = 8 + 8 + 4 + 8 + 8;  // ts, cost, size, offset, token
  EXPECT_EQ(with_item.len, frame.len + item_bytes);

  // Decoding a reply without an item leaves no stale item behind.
  GetReplyMsg out;
  ASSERT_TRUE(decode(with_item.span().subspan(kHeaderBytes), out, nullptr));
  ASSERT_TRUE(decode(frame.span().subspan(kHeaderBytes), out, nullptr));
  EXPECT_EQ(out, empty);
}

// -- leases -------------------------------------------------------------

TEST(Wire, LeaseFieldsRoundTripAtTheirBounds) {
  ReleaseMsg full;
  for (std::uint64_t i = 0; i < kMaxLeases; ++i) full.released.push_back(~i);
  expect_roundtrip(full, MsgType::kRelease);
  expect_roundtrip(ReleaseMsg{.released = {0, 7, 7}}, MsgType::kRelease);
  expect_roundtrip(ReleaseMsg{.released = {42}}, MsgType::kRelease);
  expect_roundtrip(ReleaseMsg{}, MsgType::kRelease);

  GetReplyMsg reply{.has_item = true, .lease = ~std::uint64_t{0}};
  reply.item.payload_bytes = 1 << 20;
  reply.item.arena_offset = 4096;
  reply.item.arena_token = ~std::uint64_t{0};
  expect_roundtrip(reply, MsgType::kGetReply);
  // The lease comes right before the offer (24 bytes): a reply without one
  // has eight zero bytes there.
  const FrameBuf plain = encode(GetReplyMsg{});
  for (std::size_t i = plain.len - 32; i < plain.len - 24; ++i) {
    EXPECT_EQ(plain.data[i], std::byte{0});
  }

  // A put ack's held list and a get's arena list, full and empty.
  PutAckMsg ack;
  for (std::uint64_t i = 0; i < kMaxLeases; ++i) ack.held.push_back(i + 1);
  expect_roundtrip(ack, MsgType::kPutAck);
  expect_roundtrip(PutAckMsg{.held = {3, 3}}, MsgType::kPutAck);
  GetMsg get;
  for (std::uint64_t i = 0; i < kMaxArenas; ++i) get.arenas.push_back(~i);
  expect_roundtrip(get, MsgType::kGet);
  expect_roundtrip(GetMsg{}, MsgType::kGet);
}

TEST(Wire, OverlongReleasedListIsRejected) {
  // The encoder refuses to send more than kMaxLeases ids...
  ReleaseMsg over;
  over.released.assign(kMaxLeases + 1, 1);
  EXPECT_THROW(encode(over), std::length_error);

  // ...and a hostile peer's over-long list fails to decode, whether the
  // ids are all there or the count alone lies.
  ReleaseMsg full;
  full.released.assign(kMaxLeases, 5);
  const FrameBuf frame = encode(full);
  std::vector<std::byte> body(frame.span().begin() + kHeaderBytes, frame.span().end());
  const std::size_t count_at = 0;
  const auto forged = static_cast<std::uint16_t>(kMaxLeases + 1);
  std::memcpy(body.data() + count_at, &forged, sizeof(forged));
  ReleaseMsg out;
  std::string err;
  EXPECT_FALSE(decode(body, out, &err));
  EXPECT_NE(err.find("kMaxLeases"), std::string::npos) << err;
  for (int i = 0; i < 8; ++i) body.push_back(std::byte{5});
  err.clear();
  EXPECT_FALSE(decode(body, out, &err));
  EXPECT_NE(err.find("kMaxLeases"), std::string::npos) << err;
  const auto huge = std::uint16_t{0xFFFF};
  std::memcpy(body.data() + count_at, &huge, sizeof(huge));
  EXPECT_FALSE(decode(body, out, &err));

  // The other lists have caps of their own: a put ack's held seqs
  // (kMaxLeases) and a get's arena tokens (kMaxArenas).
  PutAckMsg over_ack;
  over_ack.held.assign(kMaxLeases + 1, 1);
  EXPECT_THROW(encode(over_ack), std::length_error);
  GetMsg over_get;
  over_get.arenas.assign(kMaxArenas + 1, 1);
  EXPECT_THROW(encode(over_get), std::length_error);

  PutAckMsg ack;
  ack.held.assign(kMaxLeases, 5);
  const FrameBuf ack_frame = encode(ack);
  std::vector<std::byte> ack_body(ack_frame.span().begin() + kHeaderBytes,
                                  ack_frame.span().end());
  const std::size_t held_at = ack_body.size() - 2 - 8 * kMaxLeases;
  ack_body.at(held_at) = static_cast<std::byte>(forged & 0xFF);
  ack_body.at(held_at + 1) = static_cast<std::byte>(forged >> 8);
  for (int i = 0; i < 8; ++i) ack_body.push_back(std::byte{5});
  PutAckMsg ack_out;
  err.clear();
  EXPECT_FALSE(decode(ack_body, ack_out, &err));
  EXPECT_NE(err.find("kMaxLeases"), std::string::npos) << err;

  GetMsg get;
  get.arenas.assign(kMaxArenas, 9);
  const FrameBuf get_frame = encode(get);
  std::vector<std::byte> get_body(get_frame.span().begin() + kHeaderBytes,
                                  get_frame.span().end());
  get_body.at(16) = static_cast<std::byte>(kMaxArenas + 1);  // count, low byte
  for (int i = 0; i < 8; ++i) get_body.push_back(std::byte{9});
  GetMsg get_out;
  err.clear();
  EXPECT_FALSE(decode(get_body, get_out, &err));
  EXPECT_NE(err.find("kMaxArenas"), std::string::npos) << err;
}

TEST(Wire, LeaseFieldsSurviveTruncationAndGarbage) {
  Xoshiro256 rng(0x1EA5E);
  for (int i = 0; i < 20; ++i) {
    GetReplyMsg reply{.has_item = true, .lease = rng.next() | 1};
    reply.item = random_item(rng, 64);
    expect_truncation_safe<GetReplyMsg>(encode(reply));
    expect_truncation_safe<ReleaseMsg>(encode(ReleaseMsg{.released = random_leases(rng)}));
  }
  // Random bytes, and random lists behind a random count: any outcome but
  // a crash is fine, and a failure says why.
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::byte> body(2);
    const auto count = static_cast<std::uint16_t>(rng.below(kMaxLeases + 3));
    std::memcpy(body.data(), &count, sizeof(count));
    std::vector<std::byte> tail(8 * std::size_t{count} + rng.below(2));
    for (auto& b : tail) b = static_cast<std::byte>(rng.below(256));
    body.insert(body.end(), tail.begin(), tail.end());
    ReleaseMsg out;
    std::string err;
    if (decode(body, out, &err)) {
      EXPECT_LE(out.released.size(), kMaxLeases);
    } else {
      EXPECT_FALSE(err.empty());
    }
    GetMsg garbage;
    if (!decode(random_bytes(rng, 160), garbage, &err)) {
      EXPECT_FALSE(err.empty());
    }
    ReleaseMsg release;
    if (decode(random_bytes(rng, 160), release, &err)) {
      EXPECT_LE(release.released.size(), kMaxLeases);
    } else {
      EXPECT_FALSE(err.empty());
    }
  }
}

// -- split framing ----------------------------------------------------------

TEST(Wire, EnvelopesNeverExceedTheStackBufferCap) {
  // The zero-copy receive path banks on every conforming envelope fitting
  // kMaxEnvelopeBytes: build each message's largest envelope (every list
  // at its cap, a kMaxNameBytes name, a max-size payload announcement,
  // which costs 4 bytes regardless of payload size) and check it fits.
  const ArenaRef arena{
      .pid = -1, .fd = -1, .token = ~std::uint64_t{0}, .size = ~std::uint64_t{0}};
  const WireItem item{.ts = -1,
                      .produce_cost_ns = -1,
                      .payload_bytes = static_cast<std::uint32_t>(kMaxPayloadBytes),
                      .arena_offset = 0,
                      .arena_token = ~std::uint64_t{0}};
  const std::vector<std::uint64_t> leases(kMaxLeases, ~std::uint64_t{0});
  const std::vector<std::uint64_t> arenas(kMaxArenas, ~std::uint64_t{0});

  std::vector<std::size_t> sizes;
  const auto envelope = [&](const FrameBuf& frame) {
    sizes.push_back(frame.len - kHeaderBytes);
    return frame.len - kHeaderBytes;
  };
  const HelloMsg longest_hello{.channel = std::string(kMaxNameBytes, 'x'),
                               .producer_key = -1,
                               .consumer_key = -1,
                               .session = ~std::uint64_t{0},
                               .start_seq = ~std::uint64_t{0},
                               .arena = arena};
  const std::size_t hello = envelope(encode(longest_hello));
  envelope(encode(HelloAckMsg{.ok = true,
                              .credits = ~std::uint32_t{0},
                              .arena = arena,
                              .peer_mapped = true,
                              .instance = ~std::uint64_t{0}}));
  envelope(encode(PutMsg{.seq = ~std::uint64_t{0}, .item = item}));
  envelope(encode(PutAckMsg{.closed = true,
                            .summary = Nanos{-1},
                            .cum_seq = ~std::uint64_t{0},
                            .credits = ~std::uint32_t{0},
                            .held = leases}));
  envelope(encode(GetMsg{.consumer_summary = Nanos{-1}, .guarantee = -1, .arenas = arenas}));
  envelope(encode(GetReplyMsg{.has_item = true,
                              .closed = true,
                              .item = item,
                              .summary = Nanos{-1},
                              .waited = Nanos{-1},
                              .lease = ~std::uint64_t{0},
                              .offer = arena}));
  envelope(encode(ReleaseMsg{.released = leases}));
  envelope(encode_heartbeat());
  for (const std::size_t n : sizes) EXPECT_LE(n, kMaxEnvelopeBytes);
  // The Hello with a maximal name is the largest of them.
  EXPECT_EQ(hello, *std::max_element(sizes.begin(), sizes.end()));
  EXPECT_EQ(hello, 2 + kMaxNameBytes + 4 + 4 + 8 + 8 + 24);
}

TEST(Wire, PayloadLenRidesTheHeaderNotTheEnvelope) {
  Xoshiro256 rng(0x9E7);
  WireItem item = random_item(rng);
  item.arena_offset = kNoArenaOffset;
  const FrameBuf frame = encode(PutMsg{.item = item});
  FrameHeader h;
  ASSERT_TRUE(decode_header(frame.span().first(kHeaderBytes), h, nullptr));
  EXPECT_EQ(h.payload_len, item.payload_bytes);
  // The frame itself contains only header + envelope: payload travels
  // separately (scatter-gather on send, sink-directed receive).
  EXPECT_EQ(frame.len, kHeaderBytes + h.body_len);
  EXPECT_LT(frame.len, sizeof(frame.data) + 1);

  // An item in the sender's arena announces its size in the envelope and
  // no payload tail in the header.
  item.arena_offset = 4096;
  const FrameBuf arena_frame = encode(PutMsg{.item = item});
  ASSERT_TRUE(decode_header(arena_frame.span().first(kHeaderBytes), h, nullptr));
  EXPECT_EQ(h.payload_len, 0u);
  PutMsg out;
  ASSERT_TRUE(decode(arena_frame.span().subspan(kHeaderBytes), out, nullptr));
  EXPECT_EQ(out.item.payload_bytes, item.payload_bytes);
  EXPECT_EQ(out.item.arena_offset, 4096u);
}

// -- encode-time caps -------------------------------------------------------

TEST(Wire, EncodeEnforcesTheDecodeCaps) {
  // An over-cap field would be rejected by every peer (and a string over
  // 65535 bytes would silently truncate its u16 length prefix and
  // desynchronize the frame), so the encoder throws at the sender.
  EXPECT_THROW(encode(HelloMsg{.channel = std::string(kMaxNameBytes + 1, 'x')}),
               std::length_error);
  EXPECT_THROW(encode(PutAckMsg{.held = std::vector<std::uint64_t>(kMaxLeases + 1, 1)}),
               std::length_error);
  WireItem oversized_payload;
  oversized_payload.payload_bytes = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  EXPECT_THROW(encode(PutMsg{.item = oversized_payload}), std::length_error);

  // At-cap fields still encode (and round-trip, per the tests above).
  EXPECT_NO_THROW(encode(HelloMsg{.channel = std::string(kMaxNameBytes, 'x')}));
}

// ---------------------------------------------------------------------------
// Defensive decoding
// ---------------------------------------------------------------------------

TEST(Wire, TruncatedBodiesNeverCrash) {
  Xoshiro256 rng(0x7A6);
  expect_truncation_safe<HelloMsg>(
      encode(HelloMsg{.channel = "frames",
                      .producer_key = 3,
                      .consumer_key = 1,
                      .session = 0x1122334455667788ULL,
                      .start_seq = 42}));
  expect_truncation_safe<HelloAckMsg>(encode(HelloAckMsg{.ok = false,
                                                         .credits = 7,
                                                         .arena = random_arena(rng),
                                                         .peer_mapped = true}));
  expect_truncation_safe<PutMsg>(encode(PutMsg{.seq = 99, .item = random_item(rng, 64)}));
  expect_truncation_safe<PutAckMsg>(encode(PutAckMsg{.summary = millis(2),
                                                     .cum_seq = 99,
                                                     .credits = 5,
                                                     .held = {97, 98}}));
  expect_truncation_safe<GetMsg>(
      encode(GetMsg{.consumer_summary = millis(4), .guarantee = 17, .arenas = {1, 2}}));
  GetReplyMsg reply{.has_item = true,
                    .summary = millis(9),
                    .waited = millis(3),
                    .offer = random_arena(rng)};
  reply.item = random_item(rng, 64);
  expect_truncation_safe<GetReplyMsg>(encode(reply));
  // The no-item reply (no item envelope) is length-checked the same way.
  expect_truncation_safe<GetReplyMsg>(encode(GetReplyMsg{.waited = millis(5)}));
}

TEST(Wire, RandomGarbageNeverCrashes) {
  Xoshiro256 rng(0x6A5BA6E);
  for (int i = 0; i < 2000; ++i) {
    const auto body = random_bytes(rng, 128);
    std::string err;
    PutMsg put;
    GetReplyMsg reply;
    HelloMsg hello;
    // Any result is fine as long as nothing crashes and a failure sets a
    // diagnostic; flipping random bytes must not produce UB.
    if (!decode(body, put, &err)) {
      EXPECT_FALSE(err.empty());
    }
    if (!decode(body, reply, &err)) {
      EXPECT_FALSE(err.empty());
    }
    if (!decode(body, hello, &err)) {
      EXPECT_FALSE(err.empty());
    }
  }
}

TEST(Wire, TrailingBytesAreRejected) {
  const FrameBuf frame = encode(GetMsg{.consumer_summary = millis(1)});
  std::vector<std::byte> body(frame.span().begin() + kHeaderBytes, frame.span().end());
  body.push_back(std::byte{0});
  GetMsg out;
  std::string err;
  EXPECT_FALSE(decode(body, out, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Header validation
// ---------------------------------------------------------------------------

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndLengths) {
  const FrameBuf good = encode_heartbeat();
  std::string err;
  FrameHeader h;
  ASSERT_TRUE(decode_header(good.span().first(kHeaderBytes), h, &err));

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    FrameBuf bad = good;
    bad.data[offset] = std::byte{value};
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_FALSE(e.empty());
  };
  static_assert(kWireVersion == 9, "v9: only fields a peer reads");
  corrupt(0, 0xFF);                                      // magic
  corrupt(8, kWireVersion + 1);                          // version
  corrupt(8, 8);                                         // v8 peers (STP vectors)
  corrupt(8, 1);                                         // v1 peers are rejected too
  corrupt(9, 0);                                         // type below range
  corrupt(9, static_cast<std::uint8_t>(MsgType::kRelease) + 1);  // type above range

  // body_len beyond the envelope cap.
  {
    FrameBuf bad = good;
    const auto huge = static_cast<std::uint32_t>(kMaxEnvelopeBytes + 1);
    std::memcpy(bad.data.data() + 4, &huge, sizeof(huge));
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_NE(e.find("envelope"), std::string::npos) << e;
  }
  // payload_len beyond the hard cap.
  {
    FrameBuf bad = good;
    const auto huge = static_cast<std::uint32_t>(kMaxPayloadBytes + 1);
    std::memcpy(bad.data.data() + 12, &huge, sizeof(huge));
    FrameHeader out;
    std::string e;
    EXPECT_FALSE(decode_header(bad.span().first(kHeaderBytes), out, &e));
    EXPECT_NE(e.find("payload"), std::string::npos) << e;
  }
}

TEST(Wire, TypeNamesAreStable) {
  EXPECT_STREQ(to_string(MsgType::kHello), "hello");
  EXPECT_STREQ(to_string(MsgType::kPutAck), "put_ack");
  EXPECT_STREQ(to_string(MsgType::kHeartbeat), "heartbeat");
  EXPECT_STREQ(to_string(MsgType::kRelease), "release");
}

}  // namespace
}  // namespace stampede::net
