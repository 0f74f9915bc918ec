/// \file remote_channel.hpp
/// \brief The two halves of a cross-process channel: the client-side
///        `RemoteChannel` proxy and the server-side `ChannelServer`
///        skeleton.
///
/// A pipeline spans processes by placing the real `Channel` in one process
/// and exporting it through a `ChannelServer`; peers in other processes
/// wire a `RemoteChannel` into their own `Runtime` via the same
/// `connect()` calls used for local buffers, so task bodies are oblivious
/// to the process boundary.
///
///   front process                         back process
///   ─────────────                         ────────────
///   digitizer ──put──▶ RemoteChannel ══TCP══▶ ChannelServer ──▶ Channel
///                        ◀───────── PutAck{summary-STP} ────────┘
///
/// Endpoint slots are agreed out of band: the server pre-registers
/// `remote_producers`/`remote_consumers` pseudo-nodes on the channel at
/// construction (graph wiring must finish before `Runtime::start`), and a
/// client claims slot k by sending `producer_key=k` / `consumer_key=k` in
/// its Hello. Reconnecting with the same key resumes the same consumer
/// cursor and feedback slot.
///
/// A server connection thread never blocks in the channel. A get that
/// cannot be answered yet parks as state of its connection, and the
/// thread waits in one poll on its socket and a wakeup that the channel
/// signals when the get's consumer becomes ready (or closes). So it keeps
/// reading during a park: a consumer's `kRelease` frames end their leases
/// at once, and a hang-up ends the park at once.
///
/// Same-host peers lend payloads instead of copying them (wire v5–v8). A
/// put that names an offset in the producer's arena is stored as a view of
/// the producer's slab; the producer pins the slab until a put ack stops
/// listing its seq as held. A get reply whose item lives in an arena the
/// consumer mapped, the server's own or a producer's, is lent under a
/// lease; so a frame crosses front → mid → back with no byte copied, back's
/// lease pinning mid's item and mid's item pinning front's slab.
///
/// Failure semantics: see RemoteEndpoint (runtime/remote.hpp). The proxy
/// holds the last summary-STP received over the wire in an atomic, so a
/// producer paced by ARU keeps its period through an outage instead of
/// free-running into a doomed-to-drop frenzy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "runtime/remote.hpp"
#include "runtime/runtime.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::net {

// ---------------------------------------------------------------------------
// Client proxy
// ---------------------------------------------------------------------------

struct RemoteChannelConfig {
  /// Channel name as served by the remote ChannelServer.
  std::string name;
  /// Server address + connection tuning.
  TransportConfig transport;
  /// Producer slot claimed on the remote channel (-1 = this proxy never
  /// puts). Slots are 0..remote_producers-1 on the serving side.
  std::int32_t producer_key = -1;
  /// Consumer slot claimed on the remote channel (-1 = never gets).
  std::int32_t consumer_key = -1;
};

class RemoteChannel final : public RemoteEndpoint {
 public:
  /// Registers the proxy as a graph node in `rt` (call before rt.start()).
  /// Connection establishment is lazy — construction never touches the
  /// network, so wiring order and server startup order are independent.
  RemoteChannel(Runtime& rt, RemoteChannelConfig config);

  /// Unregisters the live-telemetry /status section (the registry may
  /// outlive this proxy).
  ~RemoteChannel() override;

  // -- RemoteEndpoint ---------------------------------------------------------

  ARU_HOT_PATH PutResult put(std::shared_ptr<Item> item, std::stop_token st) override;
  ARU_HOT_PATH GetResult get_latest(Nanos consumer_summary, Timestamp guarantee,
                                    std::stop_token st) override;
  NodeId id() const override { return node_; }
  const std::string& name() const override { return config_.name; }

  /// Flushes staged pipelined puts and blocks until every in-flight put
  /// is acked (no-op without a producer slot). True when fully drained.
  /// Call before asserting on remote channel contents in tests, before a
  /// get that must see the put, or at orderly producer teardown.
  bool drain_puts(std::stop_token st = {});

  // -- introspection (tests / diagnostics) ------------------------------------

  /// Last summary-STP received over the wire (kUnknownStp before any).
  /// This is the value producers pace against while the link is down.
  Nanos summary() const { return Nanos{summary_ns_.load(std::memory_order_relaxed)}; }

  /// Items dropped locally because the link was down.
  std::int64_t drops() const { return drops_.load(std::memory_order_relaxed); }

  /// Put-link recoveries (see Transport::reconnects).
  std::int64_t reconnects() const;

  bool connected() const;

  /// True while a link of this proxy is connected over the same-host Unix
  /// socket (see Transport::local).
  bool local() const;

 private:
  void hold_summary(Nanos summary);

  RunContext& ctx_;
  RemoteChannelConfig config_;
  NodeId node_ = kNoNode;

  /// Separate links for the two directions, so a
  /// blocking get parked on the server never head-of-line-blocks puts.
  /// The producer drives put_link_ and the consumer get_link_; the one
  /// cross-link call, a get sending the put link's staged frames, goes
  /// through the put link's locks.
  std::unique_ptr<Transport> put_link_;
  std::unique_ptr<Transport> get_link_;

  std::atomic<std::int64_t> summary_ns_{aru::kUnknownStp.count()};
  std::atomic<std::int64_t> drops_{0};

  /// Handle of the "link:<name>" /status section (0 = none registered).
  std::uint64_t status_handle_ = 0;
};

// ---------------------------------------------------------------------------
// Server skeleton
// ---------------------------------------------------------------------------

/// One channel exported by a ChannelServer.
struct ServedChannel {
  Channel* channel = nullptr;
  /// Producer slots reserved for remote peers (Hello producer_key range).
  int remote_producers = 0;
  /// Consumer slots reserved for remote peers (Hello consumer_key range).
  int remote_consumers = 0;
};

struct ServerConfig {
  /// Local address to bind. Loopback-only by default; set to a concrete
  /// interface address (or "0.0.0.0" for all interfaces) to let off-host
  /// peers attach.
  std::string host = "127.0.0.1";
  /// TCP port to listen on; 0 picks an ephemeral port (read via port()).
  std::uint16_t port = 0;
};

/// Serves local channels to remote RemoteChannel proxies. One accept
/// thread plus one thread per live connection; connection threads drive
/// the channel with the peer's identity, so the channel-side feedback
/// fold, GC guarantees, and trace events all happen exactly as they would
/// for a local peer.
class ChannelServer {
 public:
  /// Registers remote producer/consumer pseudo-nodes on every served
  /// channel (must run during graph construction, before rt.start()).
  ChannelServer(Runtime& rt, std::vector<ServedChannel> channels,
                ServerConfig config = {});
  ~ChannelServer();

  ChannelServer(const ChannelServer&) = delete;
  ChannelServer& operator=(const ChannelServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Throws std::runtime_error
  /// if the port cannot be bound.
  void start() EXCLUDES(mu_);

  /// Closes the listener and all connections, joins all threads.
  /// Idempotent.
  void stop() EXCLUDES(mu_);

  /// Bound port (valid after start(); resolves port 0 to the ephemeral
  /// port actually bound).
  std::uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Connections accepted so far (diagnostics/tests).
  std::int64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }

 private:
  /// The put slabs one producer session lent this server and that it still
  /// holds views of (wire v8). A view's seq goes in when its put is stored
  /// and out when the view dies, on whatever thread that is; every put ack
  /// lists what is in, so an ack lost with its connection loses nothing.
  /// One per (producer slot, session), shared by the session's connections:
  /// a hang-up keeps it. A new session gets a new one, and views of the old
  /// arena return into the old set, which no ack reads. A seq held twice (a
  /// replay racing its original) stays listed until both views die.
  class PutLeases final : public LeaseReturn {
   public:
    /// Records a view of put `seq`; false when kMaxLeases are held already,
    /// which a producer within its cap never causes.
    bool hold(std::uint64_t seq) EXCLUDES(mu_);
    void returned(std::uint64_t seq) noexcept override EXCLUDES(mu_);
    /// The held seqs, for a put ack.
    void list(std::vector<std::uint64_t>& out) const EXCLUDES(mu_);

   private:
    mutable util::Mutex mu_{util::LockRank::kLeaf, "net.server.put_leases"};
    std::array<std::uint64_t, kMaxLeases> seqs_ GUARDED_BY(mu_){};  ///< 0: free
  };

  /// Per-producer-slot session state. Duplicate suppression (wire v3): a
  /// producer transport replays its unacked window tail after every
  /// reconnect; the server keeps the highest settled sequence per (slot,
  /// session) and skips anything at or below it, so replays are
  /// at-most-once on the channel. A new session (new transport instance
  /// reusing the slot) resets the watermark to its advertised start_seq - 1
  /// and starts a new set of put leases. `last_seq` is atomic because a
  /// dying connection's thread may still be draining while its replacement
  /// attaches.
  struct ProducerSlot {
    util::Mutex mu{util::LockRank::kNet, "net.server.producer"};
    std::uint64_t session GUARDED_BY(mu) = 0;
    std::shared_ptr<PutLeases> leases GUARDED_BY(mu);
    std::atomic<std::uint64_t> last_seq{0};
  };

  /// A connection's arenas (wire v5/v8): the producer's as this connection
  /// mapped it (null: its puts must carry their tail), the producer
  /// session's put leases, and this runtime's own arena as a consumer maps
  /// it (token 0: none).
  struct LinkArenas {
    std::shared_ptr<PeerArena> client;
    std::shared_ptr<PutLeases> puts;
    ArenaRef own;
  };

  /// Get replies lent to the remote consumers of one served channel (wire
  /// v6), kept per consumer slot: each lease pins its item — and so its
  /// arena slab, which the consumer reads in place — until the lease id
  /// comes back in a kRelease frame on any connection of the slot, a Hello
  /// with a new session attaches the slot, or the server stops. A hang-up
  /// keeps the leases, so a consumer that reconnects never has a view it
  /// still holds recycled underneath it. Ended leases drop their items
  /// outside the slot lock.
  class LeaseTable {
   public:
    LeaseTable(std::size_t slots, telemetry::Gauge* gauge);

    /// A Hello of `session` attached `slot`. Another session means the
    /// slot's old holder is gone (one consumer per slot), so its leases end.
    void attach(std::size_t slot, std::uint64_t session);

    /// Pins `item` for `session` on `slot`. Returns the lease id, or 0 when
    /// the slot holds kMaxLeases already or another session has it now.
    std::uint64_t lend(std::size_t slot, std::uint64_t session,
                       const std::shared_ptr<const Item>& item);

    /// Ends the named leases of `slot`; unknown and repeated ids are no-ops.
    void release(std::size_t slot, std::span<const std::uint64_t> ids);

    /// Ends every lease (server stop).
    void release_all();

   private:
    struct Lease {
      std::uint64_t id = 0;  ///< 0: a free entry
      std::shared_ptr<const Item> item;
    };
    struct Slot {
      util::Mutex mu{util::LockRank::kNet, "net.server.leases"};
      std::uint64_t session GUARDED_BY(mu) = 0;
      std::uint64_t next_id GUARDED_BY(mu) = 1;
      std::array<Lease, kMaxLeases> leases GUARDED_BY(mu);
    };
    /// Items of ended leases, dropped once the slot lock is released.
    using Dropped = std::array<std::shared_ptr<const Item>, kMaxLeases>;

    /// Ends every lease of `slot` into `dropped`; returns how many.
    static std::int64_t end_all_locked(Slot& slot, Dropped& dropped) REQUIRES(slot.mu);
    void count(std::int64_t delta) const;

    std::unique_ptr<Slot[]> slots_;
    const std::size_t size_;
    telemetry::Gauge* const gauge_;  ///< aru_net_leases{channel}; null without a registry
  };

  struct Served {
    Channel* channel = nullptr;
    /// producer_key → pseudo-node registered for that remote producer.
    std::vector<NodeId> producer_nodes;
    /// producer_key → session state (size producer_nodes).
    std::unique_ptr<ProducerSlot[]> producer_slots;
    /// consumer_key → channel consumer index.
    std::vector<int> consumer_idx;
    /// Successful attaches per endpoint slot (producer keys first, then
    /// consumer keys). A second attach to a slot means the peer
    /// re-dialed — the server-side view of a link recovery.
    std::unique_ptr<std::atomic<std::int64_t>[]> slot_attaches;
    /// producer_key → live summary-STP gauge for that remote producer
    /// thread (the value piggy-backed on its put acks). Null entries when
    /// the runtime has no registry.
    std::vector<telemetry::Gauge*> producer_stp;
    /// consumer_key → get replies lent to that slot.
    std::unique_ptr<LeaseTable> leases;
  };

  /// One connection thread plus the flag the accept loop's reaper
  /// inspects. `done` is the thread's last store: once it reads true,
  /// joining is instant.
  struct Conn {
    std::jthread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop(TcpListener listener, std::stop_token st);
  void serve_connection(TcpStream stream, std::stop_token st);

  /// A Hello of `hello.session` attached producer slot `slot`: a new
  /// session resets the watermark and the put leases, the same one keeps
  /// both. Returns the session's put leases.
  static std::shared_ptr<PutLeases> attach_producer(ProducerSlot& slot, const HelloMsg& hello);

  /// Handles one attached connection after a successful Hello. A get
  /// parks as state of the connection while the loop goes on reading (file
  /// comment). Hot-path root: this loop serves every put ack and get
  /// reply, so it must not allocate.
  ARU_HOT_PATH void serve_attached(TcpStream& stream, const Served& served,
                                   const HelloMsg& hello, const LinkArenas& arenas,
                                   std::stop_token st);

  /// Joins and erases finished connection threads. Runs on every
  /// accept-loop tick so reconnect churn (clients dying and re-dialing for
  /// hours) cannot accumulate exited threads without bound.
  void reap_finished_locked() REQUIRES(mu_);

  const Served* find(const std::string& name) const;

  RunContext& ctx_;
  const ServerConfig config_;
  /// Random id of this server, sent in every HelloAck (wire v8).
  const std::uint64_t instance_;
  std::vector<Served> served_;

  /// Guards the lifecycle flags + connection-thread registry across
  /// start/stop and the accept loop (the listener itself is owned by the
  /// accept thread). Rank kNet: connection threads acquire channel locks
  /// (kBuffer) while serving, never the reverse.
  mutable util::Mutex mu_{util::LockRank::kNet, "net.server"};
  std::jthread accept_thread_ GUARDED_BY(mu_);
  std::vector<Conn> conns_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;

  std::atomic<std::uint16_t> port_{0};
  std::atomic<std::int64_t> accepted_{0};

  /// Server-side connection series (null when the runtime has no live
  /// registry). Registered at construction, incremented on the cold
  /// attach path only.
  telemetry::Counter* met_connections_ = nullptr;
  telemetry::Counter* met_reconnects_ = nullptr;
  /// Puts settled per coalesced ack (1 = idle link or slow producer).
  telemetry::Histogram* met_ack_coalesced_ = nullptr;
};

}  // namespace stampede::net
