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
/// All multi-byte integers are little-endian. A string is a u16 length and
/// its bytes; a list is a u16 count and one u64 per entry. An item's
/// envelope carries its payload size as a u32. Either the frame's payload
/// tail carries the bytes, and receivers reject a frame whose tail length
/// differs, or an arena holds them and the frame has no tail.
///
/// Version 9 carries only what a peer reads. Each message, in wire order,
/// with the reader of each field (C: the client transport or proxy, S: the
/// channel server):
///
///   kHello (client → server), on every connect
///     channel         str   S: names the served channel
///     producer_key    i32   S: the producer slot claimed (-1: none)
///     consumer_key    i32   S: the consumer slot claimed (-1: none)
///     session         u64   S: duplicate suppression; a new one ends leases
///     start_seq       u64   S: the put sequence this attach resumes from
///     arena           ref   S: the producer's arena, mapped if it checks out
///
///   kHelloAck (server → client); a refusal's reason stays in the server log
///     ok              u8    C: attached, or the link is dropped
///     credits         u32   C: the put window's initial slack
///     arena           ref   C: the server's arena, for a consumer to map
///     peer_mapped     u8    C: the server mapped the Hello's arena
///     instance        u64   C: a new server id frees every lent put slab
///
///   kPut (client → server)
///     seq             u64   S: per-link sequence, from 1; dup suppression
///     item            item  S: the item to store (below)
///
///   kPutAck (server → client), coalesced
///     closed          u8    C: the channel closed; stop producing
///     summary         i64   C: channel summary-STP, fed to source pacing
///     cum_seq         u64   C: every put up to it is settled
///     credits         u32   C: the channel's slack after this ack
///     held            list  C: lent put seqs still viewed (≤ kMaxLeases)
///
///   kGet (client → server)
///     consumer_summary i64  S: folded into the channel's backwardSTP
///     guarantee       i64   S: DGC extra guarantee (kNoTimestamp: none)
///     arenas          list  S: arenas the consumer mapped (≤ kMaxArenas)
///
///   kGetReply (server → client)
///     has_item        u8    C: an item follows
///     closed          u8    C: closed and drained; stop getting
///     item            item  C: only when has_item
///     summary         i64   C: channel summary-STP, held for pacing
///     waited          i64   C: the server's park, booked as blocked
///     lease           u64   C: pins a lent slab until released (0: none)
///     offer           ref   C: the arena a tail's bytes live in (token 0: none)
///
///   kRelease (client → server), as lent views die
///     released        list  S: lease ids to end (≤ kMaxLeases)
///
///   kHeartbeat (server → client): empty; liveness while nothing else goes
///
///   item: ts i64 (the timestamp), produce_cost_ns i64 (the replica's
///   produce cost), payload_bytes u32, arena_offset u64 (all ones: the tail
///   carries the bytes), arena_token u64 (the arena holding the bytes).
///   ref: pid u32, fd u32, token u64, size u64.
///
/// The paper's feedback (§3.3.2, Fig. 3) crosses the wire as summaries
/// only: the consumer's rides kGet, the channel's rides kPutAck and
/// kGetReply. The backwardSTP vector stays in the channel.
///
/// Mechanisms behind the fields. A producer keeps up to `credits` puts in
/// flight; the cumulative ack settles them, and after a reconnect the
/// server drops replayed seqs at or below its watermark for the session,
/// so a put reaches the channel at most once. Same-host peers lend
/// payloads through a shared arena (runtime/pool.hpp): the receiver maps
/// a peer's arena read-only only if `/proc/<pid>/fd/<fd>` names
/// `memfd:aru-arena-<token>`, belongs to its own euid, is sealed and is
/// at least the advertised size (net/peer_arena.hpp). A lent put stays
/// pinned by the producer until an ack that covers it stops listing it in
/// `held`; a lent get reply stays pinned by the server's lease until a
/// kRelease names it or a new session attaches the slot. A server re-lends a producer's slab only to links
/// that named that arena in `Get.arenas`; others get the tail and the
/// arena on offer. A hang-up ends a connection.
///
/// Decoding is defensive: every length is bounds-checked against both the
/// buffer and a hard cap (kMaxPayloadBytes, kMaxNameBytes, kMaxLeases,
/// kMaxArenas, kMaxEnvelopeBytes), and a truncated or corrupt buffer
/// yields `false` plus a diagnostic — never undefined behaviour. The
/// fuzz-style round-trip and truncation tests live in tests/test_wire.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/types.hpp"
#include "util/static_annotations.hpp"
#include "util/time.hpp"

namespace stampede::net {

inline constexpr std::uint32_t kWireMagic = 0x5350444E;  // "SPDN"
inline constexpr std::uint8_t kWireVersion = 9;
inline constexpr std::size_t kHeaderBytes = 16;

/// Hard caps a decoder enforces before trusting any on-the-wire length.
inline constexpr std::size_t kMaxNameBytes = 256;
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;  // 64 MiB
/// Items one consumer slot may hold on lease, and so the most
/// ids one `kRelease` frame may carry. A reader holds a handful of items per
/// channel, so a slot at the cap is leaking views, not using them.
inline constexpr std::size_t kMaxLeases = 16;
/// Arenas one consumer link maps and names in a Get: the server's
/// own plus one per producer of the channel, with room for a respawned
/// producer's old arena while its last items drain.
inline constexpr std::size_t kMaxArenas = 4;
/// Upper bound on an envelope. The largest is a Hello with a kMaxNameBytes
/// name, about 306 bytes, which is what lets the whole envelope path live
/// in small stack buffers.
inline constexpr std::size_t kMaxEnvelopeBytes = 512;

enum class MsgType : std::uint8_t {
  kHello = 1,    ///< connection attach: channel name + endpoint keys
  kHelloAck,     ///< attach outcome
  kPut,          ///< sequenced item
  kPutAck,       ///< cumulative ack: closed + channel summary-STP + credits
  kGet,          ///< latest-item request + consumer summary-STP + guarantee
  kGetReply,     ///< item (or closed) + channel summary-STP
  kHeartbeat,    ///< liveness while a blocking get waits server-side
  kRelease,      ///< consumer returns the leases of dead views
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

/// `WireItem::arena_offset` of an item whose payload rides the frame's
/// payload tail.
inline constexpr std::uint64_t kNoArenaOffset = ~std::uint64_t{0};

/// A timestamped item in transit: everything a peer needs to materialize
/// a local `Item` replica. The payload bytes are NOT part of the envelope —
/// `payload_bytes` records their size and the frame's payload tail carries
/// them, or an arena holds them at `arena_offset`: the sender's own, or one
/// it borrowed the bytes from.
struct WireItem {
  Timestamp ts = kNoTimestamp;
  std::int64_t produce_cost_ns = 0;
  std::uint32_t payload_bytes = 0;  ///< size of the payload
  /// Offset of the payload in arena `arena_token`; kNoArenaOffset means the
  /// frame's payload tail carries it.
  std::uint64_t arena_offset = kNoArenaOffset;
  /// Token of the arena holding the payload; 0 with a payload tail.
  std::uint64_t arena_token = 0;

  bool operator==(const WireItem&) const = default;
};

/// A shared payload arena as a same-host peer finds it:
/// `/proc/<pid>/fd/<fd>` is a memfd named `aru-arena-<token>` of at least
/// `size` bytes. A zero token advertises no arena. The process may be a
/// third one: a server offers a consumer the arena of the producer it
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
  std::uint32_t credits = 0;  ///< receiver buffer slack at attach time
  ArenaRef arena;             ///< the server's arena, for a consumer to map
  bool peer_mapped = false;   ///< the server mapped the Hello's arena
  /// Random id of the server instance. A producer that meets a new one
  /// knows the server that held its lent slabs is gone.
  std::uint64_t instance = 0;

  bool operator==(const HelloAckMsg&) const = default;
};

struct PutMsg {
  std::uint64_t seq = 0;  ///< per-link sequence number (monotonic from start_seq, ≥ 1)
  WireItem item;

  bool operator==(const PutMsg&) const = default;
};

struct PutAckMsg {
  bool closed = false;        ///< channel is closed; producers should stop
  Nanos summary{0};           ///< channel summary-STP (paper §3.3.2 put return)
  std::uint64_t cum_seq = 0;  ///< cumulative ack: all seq ≤ this are settled
  std::uint32_t credits = 0;  ///< receiver buffer slack after this ack
  /// Put seqs of this producer session whose slabs the server still holds
  /// views of, at most kMaxLeases: a lent seq up to `cum_seq` that is
  /// not listed is free to recycle.
  std::vector<std::uint64_t> held;

  bool operator==(const PutAckMsg&) const = default;
};

struct GetMsg {
  Nanos consumer_summary{0};            ///< piggy-backed consumer summary-STP
  Timestamp guarantee = kNoTimestamp;   ///< DGC extra guarantee (kNoTimestamp = none)
  /// Tokens of the arenas the consumer mapped on this link, at most
  /// kMaxArenas: the server lends only from these.
  std::vector<std::uint64_t> arenas;

  bool operator==(const GetMsg&) const = default;
};

struct GetReplyMsg {
  bool has_item = false;
  bool closed = false;  ///< channel closed and drained: consumer should stop
  WireItem item;        ///< encoded only when has_item
  Nanos summary{0};     ///< channel summary-STP
  /// Time the server parked this get waiting for the channel to become
  /// ready. The consumer books this — not the whole RPC — as blocked, so
  /// the transfer counts in its current-STP.
  Nanos waited{0};
  /// Lease pinning the item's arena slab until the consumer releases it;
  /// 0 when the reply holds no lease.
  std::uint64_t lease = 0;
  /// The arena a tail's bytes live in, when the Get did not name it:
  /// the consumer may map it and name it in later Gets. Token 0: none.
  ArenaRef offer;

  bool operator==(const GetReplyMsg&) const = default;
};

/// Leases of dead views, returned as the views die: the only way a lease
/// goes back.
struct ReleaseMsg {
  std::vector<std::uint64_t> released;  ///< at most kMaxLeases ids

  bool operator==(const ReleaseMsg&) const = default;
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
// cap (name, lease or arena list, payload size) throws std::length_error at the sender
// instead of emitting a frame every peer would reject.

ARU_HOT_PATH FrameBuf encode(const HelloMsg& m);
ARU_HOT_PATH FrameBuf encode(const HelloAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const PutMsg& m);
/// In-place variant for the pipelined window: encodes into the
/// transport's reused FrameBuf, skipping the struct copy a by-value return
/// costs on every enqueued put.
ARU_HOT_PATH void encode_into(const PutMsg& m, FrameBuf& out);
ARU_HOT_PATH FrameBuf encode(const PutAckMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetMsg& m);
ARU_HOT_PATH FrameBuf encode(const GetReplyMsg& m);
ARU_HOT_PATH FrameBuf encode(const ReleaseMsg& m);
/// A heartbeat: its envelope is empty.
ARU_HOT_PATH FrameBuf encode_heartbeat();

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

}  // namespace stampede::net
