/// \file transport.hpp
/// \brief Client-side connection manager: one logical link to a channel
///        server, with handshake, heartbeat-aware RPC, and bounded
///        exponential-backoff reconnect.
///
/// A Transport is *caller-driven*: it owns no background thread. Every
/// RPC — connect (with Hello/HelloAck handshake) if needed, send the
/// request frame, read frames until the expected reply type (heartbeats
/// are consumed as liveness) — runs on the calling task thread under one
/// `util::Mutex` of rank `kNet`, the link lock. A consumer link also
/// writes each frame (Hello, Get, kRelease) under a short write lock,
/// through its own duplicate of the socket, and never holds that lock
/// while it reads. That keeps the whole net client inside the lock-order
/// validator and the -Wthread-safety analysis, and means a stopped runtime
/// has no orphan I/O threads to chase.
///
/// Gets go through `rpc`: the request is encoded for the current link
/// into a stack FrameBuf (header + envelope, no payload). The transport
/// decodes the reply envelope itself and hands the caller the payload as
/// a `PayloadBuffer`: a pooled slab the payload tail was received into,
/// or — when the reply names an offset in an arena under a lease (wire
/// v6) — a borrowed view of the slab in this link's read-only mapping of
/// that arena, copied nowhere. The arena is the server's own or, since
/// v8, the one of the producer the server borrowed the item from.
///
/// Same-host handoff (wire v5–v8): the Hello of a producer link advertises
/// this runtime's arena, and a put whose slab lives in it travels as an
/// arena offset once the server reports it mapped the arena. The server
/// keeps a view of the slab, not a copy, so the link pins it: a lent slot
/// stays pinned past its ack until an ack that covers it no longer lists
/// it as held, or until a HelloAck names another server instance. A link
/// lends at most kMaxLeases slabs; past that cap a put rides the tail. A
/// hang-up keeps the pins, since a live server still holds its views.
/// A consumer link maps the arena the server's HelloAck advertises, and
/// each arena a reply offers, up to kMaxArenas, and names them in every
/// Get. Mappings belong to one connection: a reconnect re-checks and
/// re-maps, and the window tail is re-encoded for the new link. A
/// borrowed view holds its mapping, so the old mapping lives until its
/// last view dies. The views' lease ids come back through the link's
/// `ReleaseList`, which outlives connections, in `kRelease` frames, the
/// only way a lease goes back (wire v7). The thread that drops a view
/// sends its id at once, even while the link's get waits for its reply,
/// unless another thread holds the write lock: every writer flushes the
/// list once it lets go, so no id waits for a later get. Ids queued while
/// the link is down go out right after the next Hello. Returning leases
/// promptly matters: a lease that outlives its view pins a server slab,
/// and with Get-borne releases tracker-net's footprint rose by a third.
///
/// Reconnect policy: after a failed connect attempt the next attempt is
/// gated by an exponential backoff doubling from `backoff_initial` to at
/// most `backoff_max`. A get sleeps through the gate and retries; a put
/// returns kDisconnected immediately so the producer can drop the item
/// and keep pacing. A successful handshake after a previous session
/// records a `kReconnect` trace event carrying the failed-attempt count
/// and the final backoff.
///
/// Puts go through `put_pipelined`, which assigns the put a sequence
/// number, parks the encoded frame + payload in a bounded in-flight
/// window, stages it in a SendBuffer (flushed on window-full,
/// buffer-full, a put onto an idle link as Nagle does, or a small age
/// bound — many envelopes and small payload tails per sendmsg; payloads
/// sent straight from the item's pooled slab via scatter-gather), and
/// returns once queued. Coalesced `PutAckMsg` frames (cumulative seq +
/// credits + summary-STP) release window slots and refresh the pacing
/// feedback; the producer still paces against summary-STP, it just
/// learns it from the latest coalesced ack instead of a per-item round
/// trip. On reconnect the handshake advertises the
/// transport's random session id and resume seq, then the unacked window
/// tail is resent — the server suppresses duplicates by (session, seq),
/// preserving the channel's at-most-once semantics.
///
/// Trace events (kNetTx/kNetRx/kReconnect) are recorded where they
/// happen, under `mu_`, into the calling thread's own recorder shard. A
/// `kRelease` frame, sent by whichever thread dropped a view, is traced
/// like every other frame.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stop_token>
#include <string>
#include <vector>

#include "core/compress.hpp"
#include "net/peer_arena.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/context.hpp"
#include "stats/recorder.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace stampede::telemetry

namespace stampede::net {

struct TransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Budget for one TCP connect + handshake attempt.
  Nanos connect_timeout = millis(250);
  /// Per-frame send/receive budget. Must comfortably exceed the server's
  /// heartbeat interval: a live server emits *something* at least that
  /// often, so a full io_timeout of silence means the link is dead.
  Nanos io_timeout = seconds(1);
  /// Reconnect backoff bounds (attempt n waits min(initial·2ⁿ⁻¹, max)).
  Nanos backoff_initial = millis(10);
  Nanos backoff_max = millis(500);
};

class Transport final : public ReleaseSink {
 public:
  enum class RpcStatus : std::uint8_t {
    kOk,            ///< reply of the expected type received
    kDisconnected,  ///< no link (puts fail fast) or link died mid-RPC
    kStopped,       ///< stop token fired / runtime stopping
  };

  /// \param ctx    run services (clock for timestamps and backoff sleeps).
  /// \param node   graph node the trace events are attributed to.
  /// \param hello  handshake sent on every (re)connect.
  Transport(RunContext& ctx, NodeId node, TransportConfig config, HelloMsg hello);

  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// ReleaseSink: sends dead views' lease ids in kRelease frames unless
  /// another thread holds the write lock (consumer links), each traced as
  /// a kNetTx like every other frame. It may run under a channel lock, so
  /// it only try-locks.
  void send_now(std::vector<std::uint64_t>& ids) noexcept override EXCLUDES(wmu_);

  /// Executes one get request/reply exchange (consumer links only).
  /// `request.arenas` is set here, per link: the arenas this link mapped.
  /// Blocks (through backoff/reconnect
  /// cycles) until a link exists before sending. Once the request is sent
  /// the outcome is final: a link death mid-RPC returns kDisconnected and
  /// the caller decides whether to re-issue the (lost) request. On kOk,
  /// `reply` holds the first non-heartbeat reply frame, a kGetReply, and
  /// `payload` its item's bytes (empty without an item). A reply the link
  /// cannot honour drops it: a tail of another size than the envelope
  /// says, or an arena offset on a frame with a tail, without a lease, in
  /// an arena the link did not map, or outside the mapping. A reply that
  /// offers an arena has the link map it for later gets.
  ///
  /// \param link_wait  when non-null and the request went out, set to the
  ///        time spent before sending it: waiting for, or re-establishing,
  ///        the link. A get books it as blocked time.
  ARU_HOT_PATH RpcStatus rpc(GetMsg& request, GetReplyMsg& reply, PayloadBuffer& payload,
                             std::stop_token st, Nanos* link_wait = nullptr)
      EXCLUDES(mu_);

  /// Outcome of a pipelined (windowed) put.
  struct PutOutcome {
    RpcStatus status = RpcStatus::kDisconnected;
    /// The remote channel reported closed on an ack: the put was not
    /// queued (whatever `status` says), and no later put on this link
    /// will be.
    bool closed = false;
    Nanos summary{0};          ///< latest coalesced-ack summary-STP (kUnknownStp before any)
  };

  /// Queues one put into the in-flight window and returns without waiting
  /// for its ack (producer links only). Assigns `msg.seq`, keeps a copy
  /// in a window slot, and sends its frame — encoded for this link —
  /// at once (payload tail, or arena offset, over 8 KiB) or stages it
  /// for a batched scatter/gather flush; `payload` must stay valid until acked, which
  /// `keepalive` guarantees (the item's shared_ptr). Blocks only when the
  /// window (or the server's advertised credits) is exhausted — then it
  /// flushes and reads coalesced acks until a slot frees, consuming
  /// heartbeats as liveness exactly like rpc(). kOk means queued (the
  /// window resends the unacked tail across reconnects); kDisconnected
  /// means the item was NOT queued (no link, fail-fast — caller drops it).
  ARU_HOT_PATH PutOutcome put_pipelined(PutMsg& msg, std::span<const std::byte> payload,
                                        std::shared_ptr<const void> keepalive,
                                        std::stop_token st) EXCLUDES(mu_);

  /// Flushes staged put frames and blocks until every in-flight put is
  /// acked (or the link dies / stop fires). True when the window fully
  /// drained. For tests, benches, and orderly teardown.
  bool flush_puts(std::stop_token st) EXCLUDES(mu_);

  /// Sends the staged put frames now, without waiting for their acks —
  /// unless another thread holds the link, which then flushes its own.
  /// False when the link died (the window keeps the puts for a resend).
  bool send_staged() EXCLUDES(mu_);

  /// Unacked pipelined puts currently in flight (diagnostics/tests).
  std::size_t puts_in_flight() const EXCLUDES(mu_);

  /// Drops the link (next rpc reconnects). Safe to call concurrently.
  void disconnect() EXCLUDES(mu_);

  bool connected() const { return connected_.load(std::memory_order_relaxed); }

  /// True while connected over the same-host Unix socket rather than TCP
  /// (see net/socket.hpp).
  bool local() const { return local_.load(std::memory_order_relaxed); }

  /// Successful handshakes after the first (i.e. recoveries).
  std::int64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }

  const TransportConfig& config() const { return config_; }

 private:
  /// Why a staged put batch left the send buffer (flush-reason counters).
  enum class FlushReason : std::uint8_t { kWindow, kBytes, kIdle, kAge, kExplicit };

  /// One in-flight pipelined put: the message (its seq included), the
  /// payload span it announces, and the shared_ptr that keeps the
  /// payload's slab alive until the cumulative ack passes its sequence
  /// number. `arena_offset` is the slab's place in this runtime's arena
  /// (kNoArenaOffset: a heap slab); whether the frame names it depends on
  /// the link, so the frame is encoded per send, never kept.
  struct WindowSlot {
    PutMsg msg;
    std::span<const std::byte> payload;
    std::uint64_t arena_offset = kNoArenaOffset;
    std::shared_ptr<const void> keepalive;
    /// Sent as an arena offset to this server instance: the server may hold
    /// a view of the slab, so the ack pins it instead of letting it go.
    bool lent = false;
  };

  /// A lent slab past its ack, pinned until the server stops listing its
  /// seq as held (wire v8). seq 0: a free entry.
  struct Pin {
    std::uint64_t seq = 0;
    std::shared_ptr<const void> keepalive;
  };

  /// One arena this consumer link mapped (wire v8), and when a reply last
  /// named it, so a full table drops the least recently used.
  struct Mapped {
    std::shared_ptr<PeerArena> arena;
    std::uint64_t used = 0;
  };

  /// Establishes the link if absent and due. Returns true when connected.
  bool ensure_connected_locked() REQUIRES(mu_);

  /// Sends a Hello or Get frame. A consumer link sends it on its write
  /// handle under the write lock, then flushes the release list. False =
  /// link died.
  bool write_frame_locked(const FrameBuf& frame) REQUIRES(mu_) EXCLUDES(wmu_);

  /// Sends the request frame, then reads frames (skipping heartbeats)
  /// until a kGetReply arrives, decodes it into `reply` and its payload
  /// (if any) into `payload`. Disconnects on any failure. The stop token is re-checked after every
  /// consumed heartbeat so a reply wait against a live-but-idle server
  /// (which heartbeats indefinitely) still honors shutdown; stop mid-RPC
  /// drops the link and returns kStopped.
  RpcStatus exchange_locked(const FrameBuf& frame, GetReplyMsg& reply, PayloadBuffer& payload,
                            const std::stop_token& st) REQUIRES(mu_);

  /// The payload of a decoded get reply whose header says `header`: a
  /// borrowed view of the server's arena, or a pooled buffer the tail is
  /// received into. Empty and false when the link cannot honour it.
  bool receive_payload_locked(const FrameHeader& header, const GetReplyMsg& reply,
                              PayloadBuffer& payload) REQUIRES(mu_);

  /// Encodes a window slot's put into `frame_` for the current link: an
  /// arena offset when the server mapped our arena, the slab lives there
  /// and the slot was lent already or the link lends fewer than kMaxLeases
  /// slabs, else the payload tail. Returns the payload tail to send after
  /// the frame (empty for an arena put).
  std::span<const std::byte> encode_slot_locked(WindowSlot& slot) REQUIRES(mu_);

  /// Ends the pin of `pin`: its slab may recycle once the item dies.
  void unpin_locked(Pin& pin) REQUIRES(mu_);

  /// Ends every pin and forgets which window slots were lent: the server
  /// that held them is gone.
  void forget_lent_locked() REQUIRES(mu_);

  /// Maps `ref` (from a HelloAck or a reply's offer) unless the link has
  /// mapped or refused it already; a full table drops its least recently
  /// used mapping. Views from the mapping return their leases to the link.
  void learn_arena_locked(const ArenaRef& ref) REQUIRES(mu_);

  /// This link's mapping of arena `token`, or null.
  Mapped* mapping_locked(std::uint64_t token) REQUIRES(mu_);

  /// Lists the tokens of the arenas this link mapped, for a Get.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("fills the caller's reused Get with at most kMaxArenas tokens; capacity persists across gets")
  void name_arenas_locked(std::vector<std::uint64_t>& tokens) const REQUIRES(mu_);

  /// Reads one frame's header + envelope (NOT its payload tail — that is
  /// the caller's job, via the header's payload_len). False (and
  /// disconnect) on any failure.
  bool read_frame_locked(FrameHeader& header, EnvelopeBody& body) REQUIRES(mu_);

  void disconnect_locked() REQUIRES(mu_);

  // -- pipelined-put window helpers -------------------------------------------

  std::size_t in_flight_locked() const REQUIRES(mu_) {
    return static_cast<std::size_t>(next_seq_ - 1 - cum_acked_);
  }

  /// Window bound for this instant: the fixed window further limited
  /// by the server's advertised credits, but never below 1 — the server's
  /// backpressure wait (heartbeat-pumped try_put poll) guarantees progress
  /// for a single in-flight put even against a full bounded channel.
  std::size_t effective_window_locked() const REQUIRES(mu_);

  /// Applies one decoded coalesced ack: releases window slots up to
  /// cum_seq, refreshes credits / summary / closed.
  void apply_put_ack_locked(const PutAckMsg& ack) REQUIRES(mu_);

  /// Reads already-arrived frames without waiting (readable(0)-gated) and
  /// applies acks; heartbeats are consumed. False = link died.
  bool drain_acks_locked() REQUIRES(mu_);

  /// Blocks for one frame (ack or heartbeat). Sets *stopped when a stop
  /// request interrupted the wait; false = link died or stopped.
  bool read_ack_blocking_locked(const std::stop_token& st, bool* stopped) REQUIRES(mu_);

  /// Sends the staged batch in one scatter/gather flush, recording the
  /// reason counter and the batch-size histogram. False = link died.
  bool flush_staged_locked(FlushReason reason) REQUIRES(mu_);

  /// Retransmits the unacked window tail after a fresh handshake (dup
  /// suppression on the server keeps this at-most-once). False = link died.
  bool resend_window_locked() REQUIRES(mu_);

  /// Records one trace event of this link on the calling thread's shard
  /// and bumps the matching live counter.
  void record_event(stats::EventType type, std::int64_t a, std::int64_t b) const;

  bool stop_requested(const std::stop_token& st) const {
    return st.stop_requested() || ctx_.stopping.load(std::memory_order_relaxed);
  }

  RunContext& ctx_;
  const NodeId node_;
  const TransportConfig config_;
  const HelloMsg hello_;
  /// Random per-transport session id, advertised on every Hello so the
  /// server can tell a reconnect replay (same session, resent seqs) from
  /// a brand-new producer reusing the slot.
  const std::uint64_t session_;

  mutable util::Mutex mu_{util::LockRank::kNet, "net.transport"};
  TcpStream stream_ GUARDED_BY(mu_);
  /// A consumer link's write handle: a duplicate of stream_'s socket that
  /// carries its Hello, Get and kRelease frames. The write lock is held
  /// only while a frame is written: under mu_ by the link's own frames, or
  /// alone by a dying view. Nothing is locked under it (a leaf).
  util::Mutex wmu_{util::LockRank::kLeaf, "net.transport.write"};
  TcpStream wstream_ GUARDED_BY(wmu_);
  /// Backoff state: consecutive failed attempts since the link was lost,
  /// the current backoff, and the earliest instant of the next attempt.
  std::int64_t failed_attempts_ GUARDED_BY(mu_) = 0;
  Nanos backoff_ GUARDED_BY(mu_){0};
  std::int64_t next_attempt_ns_ GUARDED_BY(mu_) = 0;
  bool had_session_ GUARDED_BY(mu_) = false;
  /// Same-host handoff state of the current connection (wire v5/v8): the
  /// arenas this consumer link mapped (shared with the views lent from
  /// them) and the tokens it failed to map, and whether the server mapped
  /// this producer link's arena. Reset on disconnect.
  std::array<Mapped, kMaxArenas> arenas_ GUARDED_BY(mu_);
  std::array<std::uint64_t, kMaxArenas> refused_ GUARDED_BY(mu_){};
  std::uint64_t replies_ GUARDED_BY(mu_) = 0;
  bool peer_mapped_ours_ GUARDED_BY(mu_) = false;
  /// Leases of dead views on their way back (consumer links; wire v6).
  const std::shared_ptr<ReleaseList> releases_;

  /// Lent put slabs past their ack (producer links; wire v8), and how many
  /// slabs the link lends in all: these plus the lent window slots. They
  /// outlive connections; a HelloAck from another server instance ends
  /// them (`server_instance_`).
  std::array<Pin, kMaxLeases> pins_ GUARDED_BY(mu_);
  std::size_t lent_ GUARDED_BY(mu_) = 0;
  std::uint64_t server_instance_ GUARDED_BY(mu_) = 0;

  /// Pipelined-put window ring (empty on a consumer link). Slot for seq s
  /// lives at (s-1) % size; sequence numbers start at 1 (the server
  /// rejects seq 0). All preallocated in the constructor — the enqueue
  /// path only copies into slots.
  std::vector<WindowSlot> window_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t cum_acked_ GUARDED_BY(mu_) = 0;
  /// Sum of payload bytes across unacked window slots (kPutWindowBytes
  /// enforcement): grows on enqueue, shrinks as coalesced acks release
  /// slots.
  std::size_t in_flight_bytes_ GUARDED_BY(mu_) = 0;
  /// Puts since, and clock time of, the last opportunistic ack drain
  /// (kDrainEvery / kFlushInterval cadence).
  std::size_t puts_since_drain_ GUARDED_BY(mu_) = 0;
  std::int64_t last_drain_ns_ GUARDED_BY(mu_) = 0;
  std::uint32_t credits_ GUARDED_BY(mu_) = 0;
  bool remote_closed_ GUARDED_BY(mu_) = false;
  Nanos last_ack_summary_ GUARDED_BY(mu_) = aru::kUnknownStp;
  /// Reused coalesced-ack decode scratch (the held list's capacity persists).
  PutAckMsg ack_scratch_ GUARDED_BY(mu_);
  /// Encode scratch for the put frame being sent or resent.
  FrameBuf frame_ GUARDED_BY(mu_);
  /// Staging buffer for batched put flushes; count + age of what is staged.
  SendBuffer sendbuf_ GUARDED_BY(mu_);
  std::size_t staged_frames_ GUARDED_BY(mu_) = 0;
  std::int64_t first_staged_ns_ GUARDED_BY(mu_) = 0;

  std::atomic<bool> connected_{false};
  std::atomic<bool> local_{false};
  std::atomic<std::int64_t> reconnects_{0};

  /// Live telemetry series (telemetry/registry.hpp), registered once in
  /// the constructor when the run carries a registry. Raw pointers into
  /// registry-owned storage; null when telemetry is absent (bare test
  /// fixtures). Increments are striped relaxed atomics — legal on the
  /// ARU_HOT_PATH rpc root.
  telemetry::Counter* met_tx_ = nullptr;          ///< aru_net_tx_bytes_total
  telemetry::Counter* met_rx_ = nullptr;          ///< aru_net_rx_bytes_total
  telemetry::Counter* met_reconnects_ = nullptr;  ///< aru_net_reconnects_total
  /// Payload bytes handed over through a peer's arena (also in tx/rx).
  telemetry::Counter* met_arena_ = nullptr;       ///< aru_net_arena_bytes_total
  telemetry::Histogram* met_rpc_ = nullptr;       ///< aru_net_rpc_latency_ns (get links)
  /// Pipelined-put series (registered on producer links only): window
  /// occupancy, one flush counter per reason, and frames-per-flush.
  telemetry::Gauge* met_window_ = nullptr;          ///< aru_net_puts_in_flight
  telemetry::Gauge* met_put_leases_ = nullptr;      ///< aru_net_put_leases
  telemetry::Counter* met_flush_window_ = nullptr;  ///< aru_net_put_flush_total{reason=window}
  telemetry::Counter* met_flush_bytes_ = nullptr;   ///< …{reason=bytes}
  telemetry::Counter* met_flush_idle_ = nullptr;    ///< …{reason=idle}
  telemetry::Counter* met_flush_age_ = nullptr;     ///< …{reason=age}
  telemetry::Counter* met_flush_explicit_ = nullptr;  ///< …{reason=explicit}
  telemetry::Histogram* met_batch_ = nullptr;       ///< aru_net_put_batch_frames
};

}  // namespace stampede::net
