#include "net/remote_channel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <utility>

#include "net/peer_arena.hpp"
#include "runtime/item.hpp"
#include "runtime/pool.hpp"
#include "util/log.hpp"
#include "util/thread_name.hpp"
#include "util/wakeup.hpp"

namespace stampede::net {
namespace {

/// Slice for a backpressured put's wait on a full channel; short enough
/// that stop requests, peer hangups and heartbeat deadlines are honored
/// promptly between slices.
constexpr Nanos kServeSlice = millis(20);
/// While a connection has nothing to send, a heartbeat goes out at least
/// this often, so a client can tell a slow channel from a dead server
/// (TransportConfig::io_timeout must comfortably exceed it).
constexpr Nanos kHeartbeatInterval = millis(100);
/// Per-frame send/receive budget of a server connection.
constexpr Nanos kIoTimeout = seconds(1);
/// Accept-loop poll slice.
constexpr Nanos kAcceptSlice = millis(50);

/// Credits advertised for an unbounded channel: effectively "send at
/// will" (the client clamps to its own window size anyway).
constexpr std::uint32_t kUnboundedCredits = 1u << 16;

/// Ack-coalescing cap: even mid-burst, a cumulative ack goes out at
/// least every this many puts so the producer's window and credit view
/// keep advancing.
constexpr std::int64_t kMaxCoalescedPuts = 32;

/// Byte companion to kMaxCoalescedPuts: settle the pending ack once this
/// much payload has been consumed since the last one, even mid-burst. At
/// frame-scale payloads the count bound alone acks far too lazily — the
/// producer's byte-capped window fills and drains in lockstep with a
/// ~window-sized ack cycle instead of streaming; acking every ~1 MiB lets
/// the client top the window up while earlier frames are still in flight.
constexpr std::int64_t kAckCoalescedBytes = 1 << 20;

/// The on-the-wire envelope of an item. The payload bytes are not copied
/// anywhere: the frame announces their size and the caller sends them
/// scatter-gather straight from the item's pooled slab, or names the
/// slab's arena offset instead.
WireItem to_wire(const Item& item) {
  return WireItem{.ts = item.ts(),
                  .produce_cost_ns = item.produce_cost().count(),
                  .payload_bytes = static_cast<std::uint32_t>(item.bytes())};
}

/// Materializes a local Item replica for a received WireItem around its
/// payload, accounting the allocation in the trace exactly like
/// TaskContext::make_item (the Item constructor itself handles the memory
/// tracker). A borrowed payload charges nothing: its lender counts it. On
/// the put path the payload is a pooled buffer the tail was received into,
/// or a view of the producer's arena slab (wire v8).
ARU_ALLOCATES ARU_ANALYZE_ESCAPE("constructs the consumer-side Item replica (one shared_ptr control block per received item — the ownership handoff itself); its payload slab comes from the pool or is borrowed")
std::shared_ptr<Item> materialize(RunContext& ctx, const WireItem& wi, PayloadBuffer payload,
                                  NodeId producer, int cluster_node) {
  auto item = std::make_shared<Item>(ctx, wi.ts, std::move(payload), producer, cluster_node,
                                     std::vector<ItemId>{}, Nanos{wi.produce_cost_ns});
  const auto charged = static_cast<std::int64_t>(item->charged_bytes());
  ctx.recorder->record(stats::Event{.type = stats::EventType::kAlloc,
                                    .node = producer,
                                    .ts = wi.ts,
                                    .item = item->id(),
                                    .t = ctx.now_ns(),
                                    .a = charged,
                                    .b = cluster_node});
  ctx.recorder->record_item(stats::ItemRecord{
      .id = item->id(),
      .ts = wi.ts,
      .bytes = charged,
      .producer = producer,
      .cluster_node = cluster_node,
      .t_alloc = item->t_alloc(),
      .produce_cost = wi.produce_cost_ns,
  });
  return item;
}

/// Reads one frame's header + envelope (server side; the payload tail, if
/// the header announces one, is the caller's to consume). False on any
/// failure; a non-kOk mid-frame leaves the stream desynchronized, so the
/// caller must drop the connection.
bool read_frame(TcpStream& stream, Nanos timeout, FrameHeader& header,
                EnvelopeBody& body) {
  std::array<std::byte, kHeaderBytes> raw;
  if (stream.recv_exact(raw, timeout) != IoStatus::kOk) return false;
  if (!decode_header(raw, header, nullptr)) return false;
  body.len = header.body_len;  // decode_header capped this at kMaxEnvelopeBytes
  return header.body_len == 0 ||
         stream.recv_exact(body.storage(header.body_len), timeout) == IoStatus::kOk;
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteChannel (client proxy)
// ---------------------------------------------------------------------------

RemoteChannel::RemoteChannel(Runtime& rt, RemoteChannelConfig config)
    : ctx_(rt.context()), config_(std::move(config)) {
  if (config_.name.size() > kMaxNameBytes) {
    throw std::invalid_argument("RemoteChannel: channel name exceeds kMaxNameBytes (" +
                                std::to_string(kMaxNameBytes) + "): '" + config_.name +
                                "'");
  }
  node_ = rt.add_remote_node(config_.name, NodeKind::kChannel);
  if (config_.producer_key >= 0) {
    // A put proxy sends payloads: from here on this runtime's recycled
    // slabs live in its shared arena, which the Hello offers the server.
    ctx_.pool->enable_arena();
    put_link_ = std::make_unique<Transport>(
        ctx_, node_, config_.transport,
        HelloMsg{.channel = config_.name,
                 .producer_key = config_.producer_key,
                 .arena = local_arena(*ctx_.pool)});
  }
  if (config_.consumer_key >= 0) {
    get_link_ = std::make_unique<Transport>(
        ctx_, node_, config_.transport,
        HelloMsg{.channel = config_.name, .consumer_key = config_.consumer_key});
  }
  if (ctx_.metrics != nullptr) {
    // Everything the callback reads is an atomic (transport flags, the
    // held summary, the drop counter), so evaluating it under the
    // registry mutex acquires nothing.
    status_handle_ = ctx_.metrics->add_status(
        "link:" + config_.name, [this]() -> std::string {
          const Nanos held = summary();
          std::string out = "{\"connected_put\":";
          out += put_link_ && put_link_->connected() ? "true" : "false";
          out += ",\"connected_get\":";
          out += get_link_ && get_link_->connected() ? "true" : "false";
          out += ",\"reconnects\":" + std::to_string(reconnects());
          out += ",\"summary_stp_ns\":" +
                 std::to_string(aru::known(held) ? held.count() : 0);
          out += ",\"drops\":" + std::to_string(drops()) + "}";
          return out;
        });
  }
}

RemoteChannel::~RemoteChannel() {
  if (status_handle_ != 0 && ctx_.metrics != nullptr) {
    ctx_.metrics->remove_status(status_handle_);
  }
}

void RemoteChannel::hold_summary(Nanos summary) {
  summary_ns_.store(summary.count(), std::memory_order_relaxed);
}

std::int64_t RemoteChannel::reconnects() const {
  std::int64_t n = 0;
  if (put_link_) n += put_link_->reconnects();
  if (get_link_) n += get_link_->reconnects();
  return n;
}

bool RemoteChannel::connected() const {
  return (put_link_ && put_link_->connected()) || (get_link_ && get_link_->connected());
}

bool RemoteChannel::local() const {
  return (put_link_ && put_link_->local()) || (get_link_ && get_link_->local());
}

RemoteEndpoint::PutResult RemoteChannel::put(std::shared_ptr<Item> item,
                                             std::stop_token st) {
  if (!put_link_) {
    throw std::logic_error("RemoteChannel::put: no producer_key configured");
  }
  if (!item) throw std::invalid_argument("RemoteChannel::put: null item");

  PutMsg msg{.item = to_wire(*item)};
  const Nanos held = summary();

  // Queue into the transport's in-flight window and return. "Stored"
  // means queued — the window resends across reconnects and the server
  // dup-filters, so a queued item reaches the channel at most once.
  // Pacing feedback comes from the latest coalesced ack instead of a
  // per-item round trip.
  const auto out = put_link_->put_pipelined(msg, item->data(), item, st);
  if (aru::known(out.summary)) hold_summary(out.summary);
  const Nanos fed_back = aru::known(out.summary) ? out.summary : held;
  if (out.closed) return PutResult{.summary = fed_back, .closed = true};
  if (out.status == Transport::RpcStatus::kOk) {
    return PutResult{.summary = fed_back, .stored = true};
  }
  if (out.status == Transport::RpcStatus::kStopped) {
    return PutResult{.summary = held};
  }

  // Link down: account the item as a drop (dead on arrival — no put event
  // exists for it anywhere) and report the held summary-STP so the source
  // keeps pacing at the last known downstream rate instead of either
  // stalling or free-running.
  drops_.fetch_add(1, std::memory_order_relaxed);
  ctx_.recorder->record(stats::Event{.type = stats::EventType::kDrop,
                                     .node = node_,
                                     .ts = item->ts(),
                                     .item = item->id(),
                                     .t = ctx_.now_ns(),
                                     .a = 1});
  return PutResult{.summary = held, .dropped = true};
}

bool RemoteChannel::drain_puts(std::stop_token st) {
  if (!put_link_) return true;
  return put_link_->flush_puts(std::move(st));
}

RemoteEndpoint::GetResult RemoteChannel::get_latest(Nanos consumer_summary,
                                                    Timestamp guarantee,
                                                    std::stop_token st) {
  if (!get_link_) {
    throw std::logic_error("RemoteChannel::get_latest: no consumer_key configured");
  }
  // A proxy that also puts sends what this thread has staged first: a get
  // must not park on the server behind the caller's own unsent puts.
  if (put_link_) put_link_->send_staged();
  const Nanos t0 = ctx_.clock->now();

  // Reused across retries and calls: the transport overwrites every field
  // and the arena list's capacity persists, so the steady-state get path
  // is allocation-free apart from the materialized item itself.
  static thread_local GetMsg request;
  request.consumer_summary = consumer_summary;
  request.guarantee = guarantee;
  for (;;) {
    const Nanos attempt_start = ctx_.clock->now();
    Nanos link_wait{0};
    // The payload arrives received into a pooled slab, or as a borrowed
    // view of the server's arena slab: no copy either way.
    PayloadBuffer payload;
    GetReplyMsg reply;
    const auto status = get_link_->rpc(request, reply, payload, st, &link_wait);
    if (status == Transport::RpcStatus::kStopped) break;
    if (status == Transport::RpcStatus::kDisconnected) continue;  // re-issue

    if (aru::known(reply.summary)) hold_summary(reply.summary);
    if (!reply.has_item) {
      if (reply.closed) break;  // remote channel closed and drained
      continue;
    }
    // Blocked = earlier attempts + waiting for the link + the server's
    // reported park; the rest of this attempt is the transfer, which
    // counts in the consumer's current-STP. `waited` is clamped to the
    // attempt's own span, so a hostile or buggy peer can neither invert
    // nor inflate the STP.
    const Nanos sent = attempt_start + link_wait;
    const Nanos end = ctx_.clock->now();
    const Nanos waited = std::clamp(reply.waited, Nanos{0}, end - sent);
    // The replica is charged to cluster node 0: a remote proxy has no
    // simulated placement of its own.
    return GetResult{.item = materialize(ctx_, reply.item, std::move(payload), node_, 0),
                     .blocked = sent - t0 + waited};
  }
  return GetResult{.item = nullptr, .blocked = ctx_.clock->now() - t0};
}

// ---------------------------------------------------------------------------
// ChannelServer (skeleton)
// ---------------------------------------------------------------------------

ChannelServer::ChannelServer(Runtime& rt, std::vector<ServedChannel> channels,
                             ServerConfig config)
    : ctx_(rt.context()), config_(std::move(config)), instance_(random_wire_id()) {
  for (const ServedChannel& sc : channels) {
    if (sc.channel == nullptr) {
      throw std::invalid_argument("ChannelServer: null channel");
    }
    if (sc.channel->name().size() > kMaxNameBytes) {
      throw std::invalid_argument(
          "ChannelServer: channel name exceeds kMaxNameBytes (" +
          std::to_string(kMaxNameBytes) + "): '" + sc.channel->name() + "'");
    }
    // A served channel with remote consumers sends payloads: its items
    // come from the shared arena a consumer's HelloAck offers.
    if (sc.remote_consumers > 0) ctx_.pool->enable_arena();
    Served s{.channel = sc.channel};
    s.slot_attaches = std::make_unique<std::atomic<std::int64_t>[]>(
        static_cast<std::size_t>(sc.remote_producers + sc.remote_consumers));
    s.producer_slots = std::make_unique<ProducerSlot[]>(
        static_cast<std::size_t>(sc.remote_producers));
    for (int p = 0; p < sc.remote_producers; ++p) {
      const NodeId n = rt.add_remote_node(
          sc.channel->name() + ":remote_producer" + std::to_string(p),
          NodeKind::kThread);
      rt.add_remote_edge(n, sc.channel->id());
      sc.channel->register_producer(n);
      s.producer_nodes.push_back(n);
    }
    for (int c = 0; c < sc.remote_consumers; ++c) {
      const NodeId n = rt.add_remote_node(
          sc.channel->name() + ":remote_consumer" + std::to_string(c),
          NodeKind::kThread);
      rt.add_remote_edge(sc.channel->id(), n);
      // Consumer placed on the channel's own cluster node: the simulated
      // transfer model stays out of the way — the real network is the
      // transfer now.
      s.consumer_idx.push_back(
          sc.channel->register_consumer(n, sc.channel->cluster_node()));
    }
    s.leases = std::make_unique<LeaseTable>(
        s.consumer_idx.size(),
        ctx_.metrics == nullptr
            ? nullptr
            : &ctx_.metrics->gauge("aru_net_leases",
                                   "Get replies lent to remote consumers and still "
                                   "pinned (wire v6 leases).",
                                   {{"channel", sc.channel->name()}}));
    served_.push_back(std::move(s));
  }

  if (ctx_.metrics != nullptr) {
    // One label per server (joined channel names) so two servers in one
    // runtime stay distinct series; the client side of the same family
    // is labelled per link (Transport's {"link", ...}).
    std::string names;
    for (const Served& s : served_) {
      if (!names.empty()) names += ',';
      names += s.channel->name();
    }
    const telemetry::Registry::Labels labels = {{"server", names}};
    met_connections_ = &ctx_.metrics->counter(
        "aru_net_server_connections_total",
        "Connections that attached successfully (Hello acknowledged ok).",
        labels);
    met_reconnects_ = &ctx_.metrics->counter(
        "aru_net_reconnects_total",
        "Successful re-attaches to an endpoint slot already bound once "
        "(server-side link recoveries).",
        labels);
    static constexpr std::array<std::int64_t, 7> kCoalesceBounds = {1, 2, 4,  8,
                                                                    16, 32, 64};
    met_ack_coalesced_ = &ctx_.metrics->histogram(
        "aru_net_ack_coalesced_puts",
        "Puts settled by one coalesced put ack.",
        kCoalesceBounds, labels);
    // Per-remote-producer summary-STP: the same series task threads
    // publish locally, labelled with the producer pseudo-node's name, so
    // a headless spd_node still exposes per-thread feedback values.
    for (Served& s : served_) {
      s.producer_stp.reserve(s.producer_nodes.size());
      for (std::size_t k = 0; k < s.producer_nodes.size(); ++k) {
        std::string task = s.channel->name();
        task += ":remote_producer";
        task += std::to_string(k);
        s.producer_stp.push_back(&ctx_.metrics->gauge(
            "aru_task_summary_stp_ns",
            "Summary-STP this thread node propagates upstream (0 = unknown)",
            {{"task", std::move(task)}}));
      }
    }
  }
}

ChannelServer::~ChannelServer() { stop(); }

ChannelServer::LeaseTable::LeaseTable(std::size_t slots, telemetry::Gauge* gauge)
    : slots_(std::make_unique<Slot[]>(slots)), size_(slots), gauge_(gauge) {}

void ChannelServer::LeaseTable::count(std::int64_t delta) const {
  if (gauge_ != nullptr && delta != 0) gauge_->add(delta);
}

std::int64_t ChannelServer::LeaseTable::end_all_locked(Slot& slot, Dropped& dropped) {
  std::int64_t ended = 0;
  for (Lease& lease : slot.leases) {
    if (lease.id == 0) continue;
    lease.id = 0;
    dropped[static_cast<std::size_t>(ended++)] = std::move(lease.item);
  }
  return ended;
}

void ChannelServer::LeaseTable::attach(std::size_t slot, std::uint64_t session) {
  Dropped dropped;  // declared first: destroyed after the lock is released
  std::int64_t ended = 0;
  {
    Slot& s = slots_[slot];
    const util::MutexLock lock(s.mu);
    if (s.session == session) return;
    s.session = session;
    ended = end_all_locked(s, dropped);
  }
  count(-ended);
}

std::uint64_t ChannelServer::LeaseTable::lend(std::size_t slot, std::uint64_t session,
                                              const std::shared_ptr<const Item>& item) {
  std::uint64_t id = 0;
  {
    Slot& s = slots_[slot];
    const util::MutexLock lock(s.mu);
    if (s.session != session) return 0;  // a newer session owns the slot
    for (Lease& lease : s.leases) {
      if (lease.id != 0) continue;
      id = lease.id = s.next_id++;
      lease.item = item;
      break;
    }
  }
  count(id != 0 ? 1 : 0);
  return id;
}

void ChannelServer::LeaseTable::release(std::size_t slot,
                                        std::span<const std::uint64_t> ids) {
  if (ids.empty()) return;
  Dropped dropped;
  std::int64_t ended = 0;
  {
    Slot& s = slots_[slot];
    const util::MutexLock lock(s.mu);
    for (const std::uint64_t id : ids) {
      const auto it = std::ranges::find(s.leases, id, &Lease::id);
      if (id == 0 || it == s.leases.end()) continue;  // unknown, or already released
      it->id = 0;
      dropped[static_cast<std::size_t>(ended++)] = std::move(it->item);
    }
  }
  count(-ended);
}

void ChannelServer::LeaseTable::release_all() {
  for (std::size_t k = 0; k < size_; ++k) {
    Dropped dropped;
    std::int64_t ended = 0;
    {
      Slot& s = slots_[k];
      const util::MutexLock lock(s.mu);
      ended = end_all_locked(s, dropped);
    }
    count(-ended);
  }
}

bool ChannelServer::PutLeases::hold(std::uint64_t seq) {
  const util::MutexLock lock(mu_);
  const auto free = std::ranges::find(seqs_, std::uint64_t{0});
  if (free == seqs_.end()) return false;
  *free = seq;
  return true;
}

void ChannelServer::PutLeases::returned(std::uint64_t seq) noexcept {
  const util::MutexLock lock(mu_);
  const auto it = std::ranges::find(seqs_, seq);
  if (seq != 0 && it != seqs_.end()) *it = 0;
}

ARU_ALLOCATES ARU_ANALYZE_ESCAPE("fills the connection's reused ack with at most kMaxLeases seqs; capacity persists across acks")
void ChannelServer::PutLeases::list(std::vector<std::uint64_t>& out) const {
  out.clear();
  const util::MutexLock lock(mu_);
  for (const std::uint64_t seq : seqs_) {
    if (seq != 0) out.push_back(seq);
  }
}

std::shared_ptr<ChannelServer::PutLeases> ChannelServer::attach_producer(
    ProducerSlot& slot, const HelloMsg& hello) {
  const util::MutexLock lock(slot.mu);
  if (slot.session != hello.session || slot.leases == nullptr) {
    slot.session = hello.session;
    slot.last_seq.store(hello.start_seq == 0 ? 0 : hello.start_seq - 1,
                        std::memory_order_release);
    slot.leases = std::make_shared<PutLeases>();
  }
  return slot.leases;
}

const ChannelServer::Served* ChannelServer::find(const std::string& name) const {
  for (const Served& s : served_) {
    if (s.channel->name() == name) return &s;
  }
  return nullptr;
}

void ChannelServer::start() {
  std::string err;
  auto listener = TcpListener::listen(config_.host, config_.port, &err);
  if (!listener) throw std::runtime_error("ChannelServer: listen failed: " + err);

  const util::MutexLock lock(mu_);
  if (started_) throw std::logic_error("ChannelServer: start() called twice");
  started_ = true;
  port_.store(listener->port(), std::memory_order_release);
  accept_thread_ = std::jthread(
      [this, l = std::make_shared<TcpListener>(std::move(*listener))](
          std::stop_token st) {
        util::set_thread_name("net.accept");
        accept_loop(std::move(*l), st);
      });
}

void ChannelServer::stop() {
  std::jthread accept;
  std::vector<Conn> conns;
  {
    const util::MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    accept = std::move(accept_thread_);
    conns = std::move(conns_);
  }
  accept.request_stop();
  for (auto& c : conns) c.thread.request_stop();
  if (accept.joinable()) accept.join();
  for (auto& c : conns) {
    if (c.thread.joinable()) c.thread.join();
  }
  // No connection thread is left to lend or release.
  for (Served& s : served_) s.leases->release_all();
}

void ChannelServer::reap_finished_locked() {
  std::erase_if(conns_, [&](Conn& c) {
    if (!c.done->load(std::memory_order_acquire)) return false;
    if (c.thread.joinable()) c.thread.join();  // finished: joins immediately
    return true;
  });
}

void ChannelServer::accept_loop(TcpListener listener, std::stop_token st) {
  while (!st.stop_requested()) {
    auto stream = listener.accept(kAcceptSlice);
    const util::MutexLock lock(mu_);
    if (stopped_) break;  // any pending connection dropped by Socket destructor
    reap_finished_locked();
    if (!stream) continue;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    conns_.push_back(Conn{
        .thread = std::jthread(
            [this, done, s = std::make_shared<TcpStream>(std::move(*stream))](
                std::stop_token cst) {
              serve_connection(std::move(*s), cst);
              done->store(true, std::memory_order_release);
            }),
        .done = done});
  }
}

void ChannelServer::serve_connection(TcpStream stream, std::stop_token st) {
  // Attach: first frame must be a Hello naming a served channel and
  // claiming exactly one valid endpoint slot — a producer's or a
  // consumer's, since a proxy opens one link per direction. A Hello never
  // carries payload.
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame(stream, kIoTimeout, header, body) ||
      header.type != MsgType::kHello || header.payload_len != 0) {
    return;
  }
  HelloMsg hello;
  if (!decode(body.span(), hello, nullptr)) return;

  const Served* served = find(hello.channel);
  HelloAckMsg ack;
  const char* refusal = nullptr;  // logged here; the ack carries no reason
  if (served == nullptr) {
    refusal = "unknown channel";
  } else if ((hello.producer_key >= 0) == (hello.consumer_key >= 0)) {
    refusal = "hello must claim exactly one slot";
  } else if (hello.producer_key >= 0 &&
             hello.producer_key >= static_cast<std::int32_t>(served->producer_nodes.size())) {
    refusal = "producer_key out of range";
  } else if (hello.consumer_key >= 0 &&
             hello.consumer_key >= static_cast<std::int32_t>(served->consumer_idx.size())) {
    refusal = "consumer_key out of range";
  } else {
    ack.ok = true;
    ack.instance = instance_;
    // Advertise the channel's current slack so a pipelined producer can
    // open its window immediately instead of trickling until the first
    // coalesced ack refreshes the credit view.
    const std::size_t cap = served->channel->capacity();
    const std::size_t size = served->channel->size();
    ack.credits = cap == 0              ? kUnboundedCredits
                  : cap > size          ? static_cast<std::uint32_t>(cap - size)
                                        : 0;
  }
  // Same-host handoff (wire v5/v8): map a producer's arena if it checks
  // out, its views returning their seqs to the session's put leases, and
  // offer a consumer ours. Either side without one gets the tail.
  LinkArenas arenas;
  if (ack.ok && hello.producer_key >= 0) {
    arenas.puts = attach_producer(
        served->producer_slots[static_cast<std::size_t>(hello.producer_key)], hello);
    arenas.client = PeerArena::map(hello.arena, arenas.puts);
    ack.peer_mapped = arenas.client != nullptr;
  }
  if (ack.ok && hello.consumer_key >= 0) ack.arena = arenas.own = local_arena(*ctx_.pool);
  if (stream.send_all(encode(ack).span(), kIoTimeout) != IoStatus::kOk) return;
  if (!ack.ok) {
    STAMPEDE_LOG(kWarn) << "net.server: rejected hello for channel '" << hello.channel
                        << "': " << refusal;
    return;
  }

  if (met_connections_ != nullptr) met_connections_->add();
  if (hello.consumer_key >= 0) {
    served->leases->attach(static_cast<std::size_t>(hello.consumer_key), hello.session);
  }
  const std::size_t slot =
      hello.producer_key >= 0
          ? static_cast<std::size_t>(hello.producer_key)
          : served->producer_nodes.size() + static_cast<std::size_t>(hello.consumer_key);
  if (served->slot_attaches[slot].fetch_add(1, std::memory_order_relaxed) > 0 &&
      met_reconnects_ != nullptr) {
    met_reconnects_->add();
  }

  // "get:frames", "put:masks".
  util::set_thread_name((hello.producer_key >= 0 ? "put:" : "get:") + hello.channel);

  serve_attached(stream, *served, hello, arenas, st);
}

void ChannelServer::serve_attached(TcpStream& stream, const Served& served,
                                   const HelloMsg& hello, const LinkArenas& arenas,
                                   std::stop_token st) {
  Channel& channel = *served.channel;
  const NodeId chan_node = channel.id();
  std::int64_t last_tx = ctx_.now_ns();

  // Buffered I/O (wire v3): inbound bursts are decoded straight out of
  // `in` — one recv refills it with however many frames the kernel has
  // queued, so a pipelined producer costs nowhere near a syscall per
  // message. Outbound frames leave through `out.flush_with`: envelope from
  // the stack, payload (when present) zero-copy from the served item's
  // pooled slab, one sendmsg per reply.
  SendBuffer out;
  RecvBuffer in;

  // `arena_bytes`: payload handed over in our arena instead of the tail;
  // it counts in the tx bytes all the same.
  auto send_frame = [&](const FrameBuf& frame, std::span<const std::byte> payload,
                        MsgType type, std::size_t arena_bytes = 0) {
    if (out.flush_with(stream, frame.span(), payload, kIoTimeout) !=
        IoStatus::kOk) {
      return false;
    }
    last_tx = ctx_.now_ns();
    ctx_.recorder->record(stats::Event{
        .type = stats::EventType::kNetTx,
        .node = chan_node,
        .t = last_tx,
        .a = static_cast<std::int64_t>(frame.len + payload.size() + arena_bytes),
        .b = static_cast<std::int64_t>(type)});
    return true;
  };
  auto heartbeat_if_due = [&] {
    if (Nanos{ctx_.now_ns() - last_tx} < kHeartbeatInterval) return true;
    return send_frame(encode_heartbeat(), {}, MsgType::kHeartbeat);
  };

  // Receives a put's payload tail: buffered bytes first, then readv with
  // the decode buffer's free tail as the second iovec — the payload read
  // prefetches the frames behind it instead of leaving them for another
  // syscall.
  auto read_payload = [&](std::span<std::byte> dest) -> bool {
    const std::size_t take = std::min(in.buffered(), dest.size());
    if (take > 0) {
      std::memcpy(dest.data(), in.view().data(), take);
      in.consume(take);
    }
    std::size_t got = take;
    while (got < dest.size()) {
      const std::array<std::span<std::byte>, 2> bufs = {dest.subspan(got), in.tail()};
      std::size_t n = 0;
      if (stream.recv_vec(bufs, &n, kIoTimeout) != IoStatus::kOk) return false;
      const std::size_t to_dest = std::min(n, dest.size() - got);
      got += to_dest;
      if (n > to_dest) in.commit(n - to_dest);
    }
    return true;
  };

  // Duplicate-suppression watermark of this producer slot, reset by
  // attach_producer for a new session: a reconnect of the same session
  // keeps it, so replayed window tails are settled-but-skipped.
  ProducerSlot* pseq =
      hello.producer_key >= 0
          ? &served.producer_slots[static_cast<std::size_t>(hello.producer_key)]
          : nullptr;

  // Coalesced-ack state: one PutAckMsg settles every put processed since
  // the last ack (cumulative seq + credits + summary-STP). Emitted when a
  // burst drains, before blocking on backpressure, and at least every
  // kMaxCoalescedPuts so the client's window keeps advancing mid-burst.
  bool ack_pending = false;
  std::int64_t puts_since_ack = 0;
  std::int64_t bytes_since_ack = 0;
  Nanos last_summary = channel.summary();

  // Reused per-connection message scratch: decode() and the assignments
  // below overwrite every field, and the id lists' capacities persist
  // across frames, so the steady-state serve loop — every put ack and get
  // reply — is allocation-free apart from materializing received items
  // (aru-analyze hot rule).
  PutMsg put_msg;
  PutAckMsg put_ack;
  GetMsg get_msg;
  ReleaseMsg release_msg;

  auto credits_of = [&]() -> std::uint32_t {
    const std::size_t cap = channel.capacity();
    if (cap == 0) return kUnboundedCredits;
    const std::size_t size = channel.size();
    return cap > size ? static_cast<std::uint32_t>(cap - size) : 0;
  };

  // The parked get of a consumer link (at most one): its channel signals
  // `wakeup` once it can be answered, and so does a stop request.
  util::Wakeup wakeup;
  const std::stop_callback wake_on_stop(st, [&wakeup] { wakeup.signal(); });
  const auto slot = static_cast<std::size_t>(std::max(hello.consumer_key, 0));
  const int idx = hello.consumer_key >= 0 ? served.consumer_idx[slot] : -1;
  struct Disarm {
    Channel& channel;
    int idx;
    const util::Wakeup& wakeup;
    ~Disarm() {
      if (idx >= 0) channel.disarm_ready(idx, wakeup);
    }
  } const disarm{channel, idx, wakeup};
  bool parked = false;
  Nanos park_start{0};

  auto emit_put_ack = [&]() -> bool {
    if (!ack_pending) return true;
    put_ack.closed = channel.closed();
    put_ack.summary = last_summary;
    // Acquire: every view of a seq up to cum_seq is in the held list.
    put_ack.cum_seq = pseq != nullptr ? pseq->last_seq.load(std::memory_order_acquire) : 0;
    put_ack.credits = credits_of();
    if (arenas.puts != nullptr) arenas.puts->list(put_ack.held);
    if (!served.producer_stp.empty()) {
      served.producer_stp[static_cast<std::size_t>(hello.producer_key)]->set(
          put_ack.summary.count());
    }
    if (met_ack_coalesced_ != nullptr) met_ack_coalesced_->observe(puts_since_ack);
    ack_pending = false;
    puts_since_ack = 0;
    bytes_since_ack = 0;
    return send_frame(encode(put_ack), {}, MsgType::kPutAck);
  };

  // Answers the parked get; the channel is ready, so this never blocks.
  // The time parked goes back in the reply: it is the consumer's blocked
  // time, the rest of its RPC is the transfer.
  auto serve_get = [&]() -> bool {
    parked = false;
    auto res = channel.get_latest(idx, get_msg.consumer_summary, get_msg.guarantee, st);
    GetReplyMsg get_reply{.has_item = res.item != nullptr,
                          .closed = channel.closed(),
                          .summary = channel.summary(),
                          .waited = ctx_.clock->now() - park_start};
    std::span<const std::byte> payload;
    std::size_t arena_bytes = 0;
    if (res.item) {
      get_reply.item = to_wire(*res.item);
      // The slab's arena: the producer's the item borrows (wire v8), else
      // ours when the slab is in it.
      const std::byte* const data = res.item->data().data();
      const ArenaRef* home = nullptr;
      std::uint64_t offset = kNoArenaOffset;
      if (const PeerArena* lender = PeerArena::lent_from(res.item->payload())) {
        home = &lender->ref();
        offset = lender->offset_of(data);
      } else if (arenas.own.token != 0) {
        home = &arenas.own;
        offset = ctx_.pool->arena_offset(data);
      }
      // A consumer that mapped the arena reads the slab in place, under a
      // lease that pins the item; one that did not gets the tail and the
      // arena on offer. Everything else — and a reply past the slot's lease
      // cap — rides the tail.
      if (home != nullptr && offset != kNoArenaOffset) {
        if (std::ranges::find(get_msg.arenas, home->token) != get_msg.arenas.end()) {
          get_reply.lease = served.leases->lend(slot, hello.session, res.item);
        } else {
          get_reply.offer = *home;
        }
      }
      if (get_reply.lease != 0) {
        get_reply.item.arena_offset = offset;
        get_reply.item.arena_token = home->token;
        arena_bytes = res.item->bytes();
      } else {
        payload = res.item->data();
      }
    }
    // The shared_ptr in `res` keeps a tail's slab alive (and un-recycled)
    // for the duration of the scatter-gather send even if the channel
    // overwrites the slot concurrently; a lent slab stays pinned until the
    // consumer releases it.
    return send_frame(encode(get_reply), payload, MsgType::kGetReply, arena_bytes);
  };

  while (!st.stop_requested()) {
    if (in.buffered() < kHeaderBytes) {
      // Between frames. If nothing more is in the kernel buffer the burst
      // is over: settle it with one coalesced ack, then wait in one poll
      // for data (or a hang-up), the parked get's channel, or a stop,
      // until the next heartbeat is due.
      if (!stream.readable(Nanos{0})) {
        if (!emit_put_ack()) return;
        const Nanos due = kHeartbeatInterval - Nanos{ctx_.now_ns() - last_tx};
        if (!stream.readable(std::max(due, Nanos{0}), wakeup.fd())) {
          if (!heartbeat_if_due()) return;
        } else if (parked && wakeup.clear() && channel.arm_ready(idx, wakeup) &&
                   !serve_get()) {
          return;
        }
        continue;
      }
      if (in.fill(stream, kIoTimeout) != IoStatus::kOk) return;
      continue;
    }
    FrameHeader header{};
    if (!decode_header(in.view().first(kHeaderBytes), header, nullptr)) return;
    const std::size_t frame_bytes = kHeaderBytes + header.body_len;
    while (in.buffered() < frame_bytes) {
      if (in.fill(stream, kIoTimeout) != IoStatus::kOk) return;
    }
    if (header.payload_len != 0 && header.type != MsgType::kPut) {
      return;  // protocol violation: only puts carry payload client→server
    }
    const std::span<const std::byte> body =
        in.view().subspan(kHeaderBytes, header.body_len);
    // A put decodes first, so an arena put's payload counts in the rx
    // bytes like a tail's. Protocol violations: a put on a consumer-only
    // link, a garbled envelope, or an unsequenced put (sequences start
    // at 1).
    bool arena_put = false;
    if (header.type == MsgType::kPut) {
      if (hello.producer_key < 0) return;
      if (!decode(body, put_msg, nullptr) || put_msg.seq == 0) return;
      arena_put = put_msg.item.arena_offset != kNoArenaOffset;
    }
    ctx_.recorder->record(stats::Event{
        .type = stats::EventType::kNetRx,
        .node = chan_node,
        .t = ctx_.now_ns(),
        .a = static_cast<std::int64_t>(kHeaderBytes + header.body_len +
                                       header.payload_len +
                                       (arena_put ? put_msg.item.payload_bytes : 0)),
        .b = static_cast<std::int64_t>(header.type)});

    switch (header.type) {
      case MsgType::kPut: {
        // More violations: an envelope whose payload length disagrees with
        // the frame's, or an arena offset on a frame that also carries a
        // tail, on a link whose arena we did not map, or naming another
        // arena than the one we mapped.
        in.consume(frame_bytes);  // payload tail (if any) is next in the buffer
        if (arena_put ? header.payload_len != 0 || arenas.client == nullptr ||
                            put_msg.item.arena_token != arenas.client->ref().token
                      : put_msg.item.payload_bytes != header.payload_len) {
          return;
        }
        const bool duplicate =
            put_msg.seq <= pseq->last_seq.load(std::memory_order_relaxed);
        // The payload: a tail received in place into a pooled slab, or —
        // wire v8 — a view of the producer's slab, lent until the view dies
        // and the next ack stops listing its seq. An offset outside the
        // mapping, or a producer past its lending cap, drops the link.
        PayloadBuffer payload;
        if (!arena_put) {
          payload = ctx_.pool->acquire(put_msg.item.payload_bytes);
          if (header.payload_len > 0 && !read_payload(payload.span())) return;
        } else if (!duplicate) {
          if (!arenas.puts->hold(put_msg.seq)) return;
          payload = PeerArena::view(arenas.client, put_msg.item.arena_offset,
                                    put_msg.item.payload_bytes, put_msg.seq);
          if (!payload.borrowed()) {
            arenas.puts->returned(put_msg.seq);
            return;
          }
        }
        if (duplicate) {
          // Reconnect replay of a put this channel already stored: the
          // payload is consumed (stream stays in sync) and dropped, and the
          // cumulative ack settles it again. At-most-once holds.
          ack_pending = true;
          ++puts_since_ack;
        } else {
          auto item = materialize(
              ctx_, put_msg.item, std::move(payload),
              served.producer_nodes[static_cast<std::size_t>(hello.producer_key)],
              channel.cluster_node());
          // Wait out a full bounded channel here (not in the channel):
          // heartbeats must keep flowing while backpressure holds the ack,
          // and everything already settled is acked *before* blocking so
          // the producer's window can keep advancing.
          std::optional<Channel::PutResult> res = channel.try_put(item);
          while (!res) {
            if (!emit_put_ack()) return;
            if (st.stop_requested() || stream.peer_hup() || !heartbeat_if_due()) return;
            res = channel.try_put(item, kServeSlice);
          }
          last_summary = res->channel_summary;
          pseq->last_seq.store(put_msg.seq, std::memory_order_release);
          ack_pending = true;
          ++puts_since_ack;
        }
        bytes_since_ack += static_cast<std::int64_t>(put_msg.item.payload_bytes);
        if ((puts_since_ack >= kMaxCoalescedPuts ||
             bytes_since_ack >= kAckCoalescedBytes) &&
            !emit_put_ack()) {
          return;
        }
        break;
      }
      case MsgType::kGet: {
        // A consumer has one get in flight: a second one while the first
        // is parked is a protocol violation.
        if (hello.consumer_key < 0 || parked) return;
        if (!decode(body, get_msg, nullptr)) return;
        in.consume(frame_bytes);
        // Park: answered at once when the channel is ready, else when it
        // signals the wakeup. Meanwhile this loop keeps reading, so
        // releases are handled and a hang-up ends the park at once.
        parked = true;
        park_start = ctx_.clock->now();
        if (channel.arm_ready(idx, wakeup) && !serve_get()) return;
        break;
      }
      case MsgType::kRelease:
        // Leases returned as the consumer's views die (wire v6), also while
        // its get is parked.
        if (hello.consumer_key < 0 || !decode(body, release_msg, nullptr)) return;
        in.consume(frame_bytes);
        served.leases->release(slot, release_msg.released);
        break;
      case MsgType::kHeartbeat:
        in.consume(frame_bytes);
        break;  // liveness only
      default:
        return;  // protocol violation
    }
  }
}

}  // namespace stampede::net
