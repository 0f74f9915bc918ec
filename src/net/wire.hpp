/// \file wire.hpp
/// \brief Length-prefixed wire protocol for remote channels.
///
/// Every message travels as one *frame*: a fixed header, a small
/// *envelope* body (per-type layout below), and — for item-bearing
/// messages — the raw payload bytes appended verbatim after the
/// envelope. Splitting payload out of the envelope is what makes the
/// zero-copy path work: the sender emits header+envelope from a stack
/// buffer and the payload straight from the item's pooled slab
/// (scatter-gather `sendmsg`), and the receiver decodes the envelope
/// first, then reads the payload tail directly into a freshly acquired
/// pooled buffer. No intermediate frame-sized vector exists on either
/// side.
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic 0x5350444E ("SPDN", big-endian constant)
///        4     4  envelope length in bytes (little-endian u32)
///        8     1  protocol version (kWireVersion)
///        9     1  message type (MsgType)
///       10     2  reserved (zero)
///       12     4  payload length in bytes (little-endian u32)
///       16     n  envelope (per-type layout below)
///     16+n     p  payload bytes (exactly `payload length` of them)
///
/// All multi-byte integers are little-endian. Strings are a u16 length
/// followed by raw bytes; the summary-STP vector a u16 slot count
/// followed by one i64 nanosecond value per slot (`aru::kUnknownStp` = 0
/// marks empty slots). An item's envelope carries its payload size as a
/// u32 — the bytes themselves ride in the frame's payload tail, and the
/// two lengths must agree (receivers reject frames where they differ).
///
/// The backward summary-STP vector is piggy-backed on the feedback-bearing
/// messages, making paper §3.3.2 Fig. 3 literal on the wire:
///
///  * `kGet` (consumer → channel) carries the consumer's summary-STP,
///    folded into the served channel's backwardSTP vector;
///  * `kGetReply` and `kPutAck` (channel → peer) carry the channel's full
///    backwardSTP vector plus its compressed summary, which the producing
///    process feeds to its source pacing;
///  * `kPut` (producer → channel) carries the producer's own backward
///    vector for diagnostics/tracing on the serving side.
///
/// Version 3 adds the pipelined put machinery. Every `kPut` carries a
/// per-link sequence number; `kPutAck` acknowledges *cumulatively*
/// (`cum_seq` = highest contiguously stored sequence) and advertises
/// `credits` — the receiver's current buffer slack — so a source may keep
/// up to that many puts in flight without waiting. `kHello` carries a
/// random per-transport `session` id plus the `start_seq` the sender will
/// resume from, letting the server suppress duplicates after a reconnect
/// replay (at-most-once channel semantics survive resends). Sequences
/// start at 1; a `kPut` with seq 0 is a protocol violation that drops the
/// connection.
///
/// Version 4 adds `waited` to `kGetReply`: how long the server parked the
/// get waiting for the channel to become ready. The consumer books only
/// that as blocked time; the rest of the RPC — the transfer — counts in
/// its current-STP (paper §3.3.1), as the simulated link model charges it.
///
/// Version 5 lets same-host peers hand a payload over through the
/// sender's shared arena (runtime/pool.hpp) instead of the payload tail.
/// `kHello` and `kHelloAck` advertise the sender's arena as an `ArenaRef`
/// (pid, fd, random token, size); the receiver maps it read-only only if
/// `/proc/<pid>/fd/<fd>` names `memfd:aru-arena-<token>`, belongs to its
/// own euid, is sealed against shrinking and growing, and is at least the
/// advertised size (net/peer_arena.hpp). `HelloAck.peer_mapped` tells a
/// producer whether the server mapped its arena; `Get.arena` tells the
/// server whether the consumer mapped the server's. A `WireItem` whose
/// `arena_offset` is set has its payload at that offset of the sender's
/// arena, and its frame has no payload tail. A put's slab is pinned by the
/// client's window until the cumulative ack. Any failed check falls back
/// to the payload tail, and a descriptor the receiver cannot honour drops
/// the connection. Version 5 also drops `PutAck.stored`, which clients had
/// ignored since the window became the only put path.
///
/// Version 6 lends get replies instead of having them copied: a consumer
/// reads an arena reply in place, for as long as its item lives. The
/// server pins the item under a lease and names it in `GetReply.lease`
/// (0: no lease, the reply is a tail or was never pinned). The consumer
/// returns a dead view's id at once in a `kRelease` frame when its link is
/// idle, else in the next `Get.released`; either list holds at most
/// kMaxLeases ids. Leases belong to the (channel, consumer slot), not to a
/// connection: a slot pins at most kMaxLeases items (a reply past the cap
/// rides the tail), a hang-up keeps them for the same session to release
/// after a reconnect, and a Hello with a new session, or the server's
/// stop, releases them all. Unknown and repeated ids are ignored. v5's
/// empty `kRelease` ("the last reply was copied") is gone; the type now
/// carries ids.
///
/// Version 7 makes `kRelease` the only way a lease goes back: `Get.released`
/// is gone. A consumer sends the frame as soon as a view dies, even while
/// its own get is parked on the server, which reads it during the park.
///
/// Version 8 lends puts as well, and lets a server lend on what it borrowed.
/// Every arena offset names its arena: `WireItem.arena_token` is the token
/// of the arena that holds the bytes. A server stores an arena put as a view
/// of the producer's slab and lists the put seqs it still holds views of in
/// every `PutAck.held` (at most kMaxLeases); the producer keeps a lent slab
/// pinned until an ack that covers its seq no longer lists it, or until a
/// `HelloAck` names another server `instance` (the old one is gone). A list
/// that restates what is held, not what was freed, loses nothing when an ack
/// dies with its connection. A consumer names the arenas it mapped on the
/// link in every `Get.arenas` (at most kMaxArenas); a reply whose item lives
/// in an arena the Get did not name rides the tail and offers that arena as
/// `GetReply.offer`, which the consumer maps with the same checks as the
/// server's own. So a server re-lends a producer's slab to its consumers,
/// and only to links that mapped it. `Get.arena` (v5's flag) is gone.
///
/// Decoding is defensive: every length is bounds-checked against both the
/// buffer and a hard cap (kMaxStpSlots, kMaxAttrs, kMaxPayloadBytes,
/// kMaxNameBytes, kMaxEnvelopeBytes), and a truncated or corrupt buffer
/// yields `false` plus a diagnostic — never undefined behaviour. The
/// fuzz-style round-trip and truncation tests live in tests/test_wire.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "runtime/types.hpp"
#include "util/static_annotations.hpp"
#include "util/time.hpp"

namespace stampede::net {

inline constexpr std::uint32_t kWireMagic = 0x5350444E;  // "SPDN"
inline constexpr std::uint8_t kWireVersion = 8;
inline constexpr std::size_t kHeaderBytes = 16;

/// Hard caps a decoder enforces before trusting any on-the-wire length.
inline constexpr std::size_t kMaxStpSlots = 64;  ///< matches Channel::kMaxConsumers
inline constexpr std::size_t kMaxAttrs = 64;
inline constexpr std::size_t kMaxNameBytes = 256;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;  // 64 MiB
/// Items one consumer slot may hold on lease (wire v6), and so the most
/// ids one `kRelease` frame may carry. A reader holds a handful of items per
/// channel, so a slot at the cap is leaking views, not using them.
inline constexpr std::size_t kMaxLeases = 16;
/// Arenas one consumer link maps and names in a Get (wire v8): the server's
/// own plus one per producer of the channel, with room for a respawned
/// producer's old arena while its last items drain.
inline constexpr std::size_t kMaxArenas = 4;
/// Upper bound on an envelope. Every message's fixed fields plus maxed-out
/// variable fields (name, attrs, STP slots) total well under 2 KiB, which
/// is what lets the whole envelope path live in stack buffers.
inline constexpr std::size_t kMaxEnvelopeBytes = 2048;

enum class MsgType : std::uint8_t {
  kHello = 1,    ///< connection attach: channel name + endpoint keys
  kHelloAck,     ///< attach outcome
  kPut,          ///< item + producer backward-STP vector
  kPutAck,       ///< cumulative ack: closed + channel summary + backward-STP vector
  kGet,          ///< latest-item request + consumer summary-STP + guarantee
  kGetReply,     ///< item (or closed) + channel summary + backward-STP vector
  kHeartbeat,    ///< liveness while a blocking get waits server-side
  kClose,        ///< orderly goodbye
  kRelease,      ///< consumer returns the leases of dead views (v6)
};

/// True for a value the header decoder should accept.
constexpr bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kRelease);
}

const char* to_string(MsgType type);

/// A random id for the wire: a transport's session, a server's instance.
/// Never 0, which reads as "none".
std::uint64_t random_wire_id();

/// Well-known item attribute keys. Attributes are free-form (key, value)
/// tags preserved end-to-end; unknown keys must be carried through.
inline constexpr std::uint32_t kTagProducerNode = 1;  ///< origin-process producer NodeId
inline constexpr std::uint32_t kTagClusterNode = 2;   ///< origin-process cluster node

/// `WireItem::arena_offset` of an item whose payload rides the frame's
/// payload tail.
inline constexpr std::uint64_t kNoArenaOffset = ~std::uint64_t{0};

/// A timestamped item in transit: everything a peer needs to materialize
/// a local `Item` replica plus the attribute tags riding along. The
/// payload bytes are NOT part of the envelope — `payload_bytes` records
/// their size and the frame's payload tail carries them, or an arena holds
/// them at `arena_offset` (wire v5): the sender's own, or one it borrowed
/// the bytes from (v8).
struct WireItem {
  Timestamp ts = kNoTimestamp;
  std::uint64_t origin_id = 0;  ///< item id in the *sending* process's id space
  std::int64_t produce_cost_ns = 0;
  std::vector<std::pair<std::uint32_t, std::int64_t>> attrs;
  std::uint32_t payload_bytes = 0;  ///< size of the payload
  /// Offset of the payload in arena `arena_token`; kNoArenaOffset means the
  /// frame's payload tail carries it.
  std::uint64_t arena_offset = kNoArenaOffset;
  /// Token of the arena holding the payload (v8); 0 with a payload tail.
  std::uint64_t arena_token = 0;

  bool operator==(const WireItem&) const = default;
};

/// A shared payload arena as a same-host peer finds it (v5):
/// `/proc/<pid>/fd/<fd>` is a memfd named `aru-arena-<token>` of at least
/// `size` bytes. A zero token advertises no arena. Since v8 the process may
/// be a third one: a server offers a consumer the arena of the producer it
/// borrowed an item from.
struct ArenaRef {
  std::int32_t pid = 0;
  std::int32_t fd = -1;
  std::uint64_t token = 0;
  std::uint64_t size = 0;

  bool operator==(const ArenaRef&) const = default;
};

struct HelloMsg {
  std::string channel;
  /// Pre-registered producer or consumer slot (-1 = none). A Hello sets
  /// exactly one of the two; the server refuses both and neither.
  std::int32_t producer_key = -1;
  std::int32_t consumer_key = -1;
  std::uint64_t session = 0;       ///< random per-transport id for dup suppression
  std::uint64_t start_seq = 0;     ///< first put sequence this attach will send
  ArenaRef arena;                  ///< the producer's arena, for the server to map

  bool operator==(const HelloMsg&) const = default;
};

struct HelloAckMsg {
  bool ok = false;
  std::string message;
  std::uint32_t credits = 0;  ///< receiver buffer slack at attach time
  ArenaRef arena;             ///< the server's arena, for a consumer to map
  bool peer_mapped = false;   ///< the server mapped the Hello's arena
  /// Random id of the server instance (v8). A producer that meets a new one
  /// knows the server that held its lent slabs is gone.
  std::uint64_t instance = 0;

  bool operator==(const HelloAckMsg&) const = default;
};

struct PutMsg {
  std::uint64_t seq = 0;  ///< per-link sequence number (monotonic from start_seq, ≥ 1)
  WireItem item;
  std::vector<Nanos> stp;  ///< producer's backwardSTP vector (diagnostic)

  bool operator==(const PutMsg&) const = default;
};

struct PutAckMsg {
  bool closed = false;        ///< channel is closed; producers should stop
  Nanos summary{0};           ///< channel summary-STP (paper §3.3.2 put return)
  std::uint64_t cum_seq = 0;  ///< cumulative ack: all seq ≤ this are settled
  std::uint32_t credits = 0;  ///< receiver buffer slack after this ack
  std::vector<Nanos> stp;     ///< channel's full backwardSTP vector
  /// Put seqs of this producer session whose slabs the server still holds
  /// views of (v8), at most kMaxLeases: a lent seq up to `cum_seq` that is
  /// not listed is free to recycle.
  std::vector<std::uint64_t> held;

  bool operator==(const PutAckMsg&) const = default;
};

struct GetMsg {
  Nanos consumer_summary{0};            ///< piggy-backed consumer summary-STP
  Timestamp guarantee = kNoTimestamp;   ///< DGC extra guarantee (kNoTimestamp = none)
  /// Tokens of the arenas the consumer mapped on this link (v8), at most
  /// kMaxArenas: the server lends only from these.
  std::vector<std::uint64_t> arenas;

  bool operator==(const GetMsg&) const = default;
};

struct GetReplyMsg {
  bool has_item = false;
  bool closed = false;  ///< channel closed and drained: consumer should stop
  WireItem item;        ///< valid only when has_item
  std::int32_t skipped = 0;
  Nanos summary{0};          ///< channel summary-STP
  /// Time the server parked this get waiting for the channel to become
  /// ready (wire v4). The consumer books this — not the whole RPC — as
  /// blocked, so the transfer counts in its current-STP.
  Nanos waited{0};
  std::vector<Nanos> stp;    ///< channel's full backwardSTP vector
  /// Lease pinning the item's arena slab until the consumer releases it
  /// (v6); 0 when the reply holds no lease.
  std::uint64_t lease = 0;
  /// The arena a tail's bytes live in, when the Get did not name it (v8):
  /// the consumer may map it and name it in later Gets. Token 0: none.
  ArenaRef offer;

  bool operator==(const GetReplyMsg&) const = default;
};

/// Leases of dead views, returned as the views die (wire v6; the only way
/// back since v7).
struct ReleaseMsg {
  std::vector<std::uint64_t> released;  ///< at most kMaxLeases ids

  bool operator==(const ReleaseMsg&) const = default;
};

struct HeartbeatMsg {
  std::int64_t t_ns = 0;  ///< sender clock at emission (diagnostics)

  bool operator==(const HeartbeatMsg&) const = default;
};

/// Decoded frame header.
struct FrameHeader {
  MsgType type{};
  std::uint32_t body_len = 0;     ///< envelope length (≤ kMaxEnvelopeBytes)
  std::uint32_t payload_len = 0;  ///< payload tail length (≤ kMaxPayloadBytes)
};

/// An encoded header + envelope, ready to send. Lives entirely on the
/// stack (the envelope cap makes that cheap); the payload tail — when the
/// message has one — is sent separately from the item's own buffer.
struct FrameBuf {
  std::array<std::byte, kHeaderBytes + kMaxEnvelopeBytes> data;
  std::size_t len = 0;

  std::span<const std::byte> span() const { return {data.data(), len}; }
};

/// A received envelope body (header already consumed). Sized for the
/// worst-case envelope so the receive path never heap-allocates.
struct EnvelopeBody {
  std::array<std::byte, kMaxEnvelopeBytes> data;
  std::size_t len = 0;

  std::span<const std::byte> span() const { return {data.data(), len}; }
  std::span<std::byte> storage(std::size_t n) { return {data.data(), n}; }
};

// -- encoding ---------------------------------------------------------------
// Each returns the frame's header + envelope; for item-bearing messages
// the header's payload_len field is item.payload_bytes — 0 when the item
// names an arena offset — and the caller is responsible for sending
// exactly that many payload bytes after the envelope. Encoders enforce
// the same hard caps as the decoders: a variable-length field over its
// cap (name, STP slots, attrs) throws std::length_error at the sender
// instead of emitting a frame every peer would reject.

ARU_HOT_PATH FrameBuf encode(const HelloMsg& m);
ARU_HOT_PATH FrameBuf encode(const HelloAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const PutMsg& m);
/// In-place variant for the pipelined window: encodes into the
/// transport's reused FrameBuf, skipping the ~2 KiB struct copy a
/// by-value return costs on every enqueued put.
ARU_HOT_PATH void encode_into(const PutMsg& m, FrameBuf& out);
ARU_HOT_PATH FrameBuf encode(const PutAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetReplyMsg& m);
ARU_HOT_PATH FrameBuf encode(const ReleaseMsg& m);
ARU_HOT_PATH FrameBuf encode(const HeartbeatMsg& m);
ARU_HOT_PATH FrameBuf encode_close();

// -- decoding ---------------------------------------------------------------
// All decoders return false (and set *err when non-null) on truncated,
// oversized, or malformed input. They never throw and never read out of
// bounds.

/// Decodes the 16-byte header; `buf` must hold at least kHeaderBytes.
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode_header(std::span<const std::byte> buf,
                                                 FrameHeader& out, std::string* err);

ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, HelloMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          HelloAckMsg& out, std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, PutMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, PutAckMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body, GetMsg& out,
                                          std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          GetReplyMsg& out, std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          ReleaseMsg& out, std::string* err);
ARU_HOT_PATH ARU_NOTHROW_PATH bool decode(std::span<const std::byte> body,
                                          HeartbeatMsg& out, std::string* err);

}  // namespace stampede::net
