#include "net/transport.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "runtime/pool.hpp"
#include "telemetry/registry.hpp"

namespace stampede::net {
namespace {

/// Sleep slice while waiting out a backoff gate: short enough that stop
/// requests are honored promptly.
constexpr Nanos kRetrySlice = millis(5);

/// RPC latency buckets: 10µs .. 1s, roughly 1-2-5 per decade. An RPC
/// spans at least one network round-trip, so sub-10µs resolution is
/// noise; anything beyond 1s has blown through io_timeout already.
constexpr std::array<std::int64_t, 16> kRpcLatencyBounds = {
    10'000,      20'000,      50'000,       100'000,      200'000,    500'000,
    1'000'000,   2'000'000,   5'000'000,    10'000'000,   20'000'000, 50'000'000,
    100'000'000, 200'000'000, 500'000'000,  1'000'000'000};

/// Pipelined put window: the maximum number of unacknowledged puts in
/// flight on a producer link (further bounded by the credits the server
/// advertises on coalesced acks).
constexpr std::size_t kPutWindow = 64;

/// Companion byte bound on the same window: unacknowledged payload bytes
/// in flight. Small items fill all kPutWindow slots; at frame-scale
/// payloads this caps the working set of retained pooled slabs (sender,
/// socket buffers, receiver materialize) to something cache-sized — an
/// uncapped 64-slot window of 1 MiB frames holds 64 MiB of cold slabs. A
/// single put larger than the cap still goes out alone (the bound never
/// starves the window below one in-flight put).
constexpr std::size_t kPutWindowBytes = std::size_t{4} << 20;

/// How long a staged (encoded but unflushed) put frame may age in the
/// send buffer before the next put forces a flush. Small enough that a
/// steadily producing source never delays feedback noticeably; a tight
/// producer loop amortizes many frames into one sendmsg within it.
constexpr Nanos kFlushInterval = micros(200);

/// Flush the staged batch once it holds this many bytes: large enough to
/// amortize the sendmsg, small enough to stay well under the send buffer
/// and keep the server's burst decoder busy rather than bursty.
constexpr std::size_t kFlushBytes = std::size_t{32} * 1024;

/// Payload tails larger than this skip the staging copy and ride the
/// flush as a zero-copy trailing iovec instead.
constexpr std::size_t kInlinePayloadMax = std::size_t{8} * 1024;
// An arena slab is never staged: the arena only holds recycled slabs, all
// of which take the trailing-iovec branch of put_pipelined.
static_assert(PayloadPool::kMinPooledBytes > kInlinePayloadMax);
static_assert(PayloadPool::kNotInArena == kNoArenaOffset);

/// Frames-per-flush histogram buckets (powers of two up to the largest
/// sensible window).
constexpr std::array<std::int64_t, 8> kBatchBounds = {1, 2, 4, 8, 16, 32, 64, 128};

/// Opportunistic ack-drain cadence for a window under no pressure: a
/// pipelined put polls the socket for arrived acks at most this many puts
/// or kFlushInterval apart, whichever comes first, bounding both
/// summary-STP feedback staleness and the unread heartbeat backlog
/// without paying a poll() syscall on every put of a tight loop. The time
/// bound makes a slow producer poll on every put, so it sees a close flag
/// or a hung-up peer before queuing anything more into the link.
constexpr std::size_t kDrainEvery = 16;

}  // namespace

Transport::Transport(RunContext& ctx, NodeId node, TransportConfig config, HelloMsg hello)
    : ctx_(ctx),
      node_(node),
      config_(std::move(config)),
      hello_(std::move(hello)),
      session_(random_wire_id()),
      releases_(hello_.consumer_key >= 0 ? std::make_shared<ReleaseList>() : nullptr) {
  const bool producer = hello_.producer_key >= 0;
  if (producer) window_.resize(kPutWindow);
  if (releases_ != nullptr) releases_->attach(this);

  if (ctx_.metrics != nullptr) {
    // One link per transport; puts and gets of the same channel are
    // distinct links (separate sockets), so the label tells them apart.
    telemetry::Registry::Labels labels = {
        {"link", hello_.channel + (hello_.producer_key >= 0 ? "/put" : "/get")}};
    telemetry::Registry& reg = *ctx_.metrics;
    met_tx_ = &reg.counter("aru_net_tx_bytes_total",
                           "Bytes sent on this transport link (frames + payload).",
                           labels);
    met_rx_ = &reg.counter("aru_net_rx_bytes_total",
                           "Bytes received on this transport link.", labels);
    met_reconnects_ = &reg.counter(
        "aru_net_reconnects_total",
        "Successful handshakes after the first (link recoveries).", labels);
    met_arena_ = &reg.counter(
        "aru_net_arena_bytes_total",
        "Payload bytes handed over through a same-host peer's shared arena "
        "instead of the TCP stream (also counted in tx/rx bytes).",
        labels);
    if (!producer) {
      met_rpc_ = &reg.histogram(
          "aru_net_rpc_latency_ns",
          "End-to-end rpc() latency (connect wait + exchange), nanoseconds.",
          kRpcLatencyBounds, labels);
    } else {
      met_window_ = &reg.gauge("aru_net_puts_in_flight",
                               "Unacknowledged pipelined puts in flight.", labels);
      met_put_leases_ = &reg.gauge(
          "aru_net_put_leases",
          "Put slabs lent to the server and still pinned (wire v8 put leases).", labels);
      const auto reason_counter = [&](const char* reason) {
        telemetry::Registry::Labels rl = labels;
        rl.push_back({"reason", reason});
        return &reg.counter("aru_net_put_flush_total",
                            "Staged put batches flushed, by trigger.", rl);
      };
      met_flush_window_ = reason_counter("window");
      met_flush_bytes_ = reason_counter("bytes");
      met_flush_idle_ = reason_counter("idle");
      met_flush_age_ = reason_counter("age");
      met_flush_explicit_ = reason_counter("explicit");
      met_batch_ = &reg.histogram("aru_net_put_batch_frames",
                                  "Put frames per scatter/gather flush.",
                                  kBatchBounds, labels);
    }
  }
}

Transport::~Transport() {
  // A view that outlives the link queues its id and sends nothing.
  if (releases_ != nullptr) releases_->attach(nullptr);
}

void Transport::send_now(std::vector<std::uint64_t>& ids) noexcept {
  // A writer holding the lock flushes the list once it lets go. A frame is
  // a few dozen bytes on a link whose send buffer holds at most a Get and
  // a few releases, so the send does not wait.
  if (ids.empty() || !wmu_.try_lock()) return;
  while (!ids.empty() && wstream_.valid()) {
    static thread_local ReleaseMsg msg;
    const auto n = static_cast<std::ptrdiff_t>(std::min(ids.size(), kMaxLeases));
    msg.released.assign(ids.begin(), ids.begin() + n);
    const FrameBuf frame = encode(msg);
    if (wstream_.send_all(frame.span(), config_.io_timeout) != IoStatus::kOk) {
      // The stream may hold part of a frame now: write nothing more to it.
      // The reader sees the link die; the ids go out after the next Hello.
      wstream_.close();
      break;
    }
    ids.erase(ids.begin(), ids.begin() + n);
    record_event(stats::EventType::kNetTx, static_cast<std::int64_t>(frame.len),
                 static_cast<std::int64_t>(MsgType::kRelease));
  }
  wmu_.unlock();
}

void Transport::record_event(stats::EventType type, std::int64_t a, std::int64_t b) const {
  ctx_.recorder->record(stats::Event{
      .type = type, .node = node_, .t = ctx_.now_ns(), .a = a, .b = b});
  switch (type) {
    case stats::EventType::kNetTx:
      if (met_tx_ != nullptr) met_tx_->add(static_cast<std::uint64_t>(a));
      break;
    case stats::EventType::kNetRx:
      if (met_rx_ != nullptr) met_rx_->add(static_cast<std::uint64_t>(a));
      break;
    case stats::EventType::kReconnect:
      if (met_reconnects_ != nullptr) met_reconnects_->add();
      break;
    default:
      break;
  }
}

void Transport::disconnect() {
  const util::MutexLock lock(mu_);
  disconnect_locked();
}

void Transport::disconnect_locked() {
  stream_.close();
  {
    const util::MutexLock write(wmu_);
    wstream_.close();
  }
  arenas_ = {};
  refused_ = {};
  peer_mapped_ours_ = false;
  connected_.store(false, std::memory_order_relaxed);
  local_.store(false, std::memory_order_relaxed);
}

bool Transport::ensure_connected_locked() {
  if (stream_.valid()) return true;

  const std::int64_t now = ctx_.now_ns();
  if (now < next_attempt_ns_) return false;  // backoff gate not yet open

  auto fail = [&] {
    ++failed_attempts_;
    backoff_ = backoff_.count() == 0
                   ? config_.backoff_initial
                   : std::min(backoff_ * 2, config_.backoff_max);
    next_attempt_ns_ = now + backoff_.count();
    return false;
  };

  auto stream = TcpStream::connect(config_.host, config_.port, config_.connect_timeout);
  if (!stream) return fail();
  stream_ = std::move(*stream);
  if (releases_ != nullptr) {
    const util::MutexLock write(wmu_);
    wstream_ = stream_.duplicate();
  }

  // A new socket: whatever was staged for the old one is void. The window
  // (not the staging buffer) is the source of truth for retransmission.
  sendbuf_.clear();
  staged_frames_ = 0;

  // Handshake: Hello → HelloAck(ok). The handshake never carries payload.
  // Each attempt advertises this transport's session id and the sequence
  // it will resume from, so the server can suppress replayed duplicates.
  HelloMsg hello_msg = hello_;
  hello_msg.session = session_;
  hello_msg.start_seq = cum_acked_ + 1;
  const FrameBuf hello = encode(hello_msg);
  if (!write_frame_locked(hello)) {
    disconnect_locked();
    return fail();
  }
  record_event(stats::EventType::kNetTx, static_cast<std::int64_t>(hello.len),
               static_cast<std::int64_t>(MsgType::kHello));
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame_locked(header, body) || header.type != MsgType::kHelloAck ||
      header.payload_len != 0) {
    disconnect_locked();
    return fail();
  }
  record_event(stats::EventType::kNetRx,
               static_cast<std::int64_t>(kHeaderBytes + header.body_len),
               static_cast<std::int64_t>(header.type));
  HelloAckMsg ack;
  if (!decode(body.span(), ack, nullptr) || !ack.ok) {
    disconnect_locked();
    return fail();
  }
  credits_ = ack.credits;
  peer_mapped_ours_ = ack.peer_mapped;
  if (hello_.producer_key >= 0 && ack.instance != server_instance_) {
    // Another server instance: the one that held our lent slabs is gone.
    forget_lent_locked();
    server_instance_ = ack.instance;
  }
  if (hello_.consumer_key >= 0) learn_arena_locked(ack.arena);

  if (had_session_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    record_event(stats::EventType::kReconnect, failed_attempts_, backoff_.count());
  }
  had_session_ = true;
  failed_attempts_ = 0;
  backoff_ = Nanos{0};
  next_attempt_ns_ = 0;

  // Pipelined links replay their unacked tail before anything new goes
  // out, so a reconnect preserves send order (the server's dup filter
  // makes the replay at-most-once on the channel).
  if (in_flight_locked() > 0 && !resend_window_locked()) {
    return fail();
  }
  connected_.store(true, std::memory_order_relaxed);
  local_.store(stream_.local(), std::memory_order_relaxed);
  return true;
}

bool Transport::write_frame_locked(const FrameBuf& frame) {
  if (releases_ == nullptr) {
    return stream_.send_all(frame.span(), config_.io_timeout) == IoStatus::kOk;
  }
  bool ok = false;
  {
    const util::MutexLock write(wmu_);
    ok = wstream_.send_all(frame.span(), config_.io_timeout) == IoStatus::kOk;
  }
  releases_->flush();  // ids queued while this frame held the write lock
  return ok;
}

std::size_t Transport::effective_window_locked() const {
  const std::size_t by_credit =
      credits_ == 0 ? std::size_t{1} : static_cast<std::size_t>(credits_);
  return std::max<std::size_t>(1, std::min(kPutWindow, by_credit));
}

void Transport::apply_put_ack_locked(const PutAckMsg& ack) {
  for (std::uint64_t s = cum_acked_ + 1; s <= ack.cum_seq && s < next_seq_; ++s) {
    WindowSlot& slot = window_[static_cast<std::size_t>((s - 1) % window_.size())];
    in_flight_bytes_ -= slot.payload.size();
    slot.payload = {};
    if (std::exchange(slot.lent, false)) {
      // The server may hold a view of the slab: pin it past the ack. A pin
      // is free, as lent_ counts pins and lent slots and stays within the
      // kMaxLeases pins there are.
      Pin& pin = *std::ranges::find(pins_, std::uint64_t{0}, &Pin::seq);
      pin.seq = s;
      pin.keepalive = std::move(slot.keepalive);
    }
    slot.keepalive.reset();
  }
  // Wire v8: a lent seq the ack covers but does not list as held has no
  // view left on the server. Unknown and repeated seqs change nothing.
  for (Pin& pin : pins_) {
    if (pin.seq != 0 && pin.seq <= ack.cum_seq &&
        std::ranges::find(ack.held, pin.seq) == ack.held.end()) {
      unpin_locked(pin);
    }
  }
  if (ack.cum_seq > cum_acked_) cum_acked_ = std::min(ack.cum_seq, next_seq_ - 1);
  credits_ = ack.credits;
  if (aru::known(ack.summary)) last_ack_summary_ = ack.summary;
  if (ack.closed) remote_closed_ = true;
  if (met_window_ != nullptr) {
    met_window_->set(static_cast<std::int64_t>(in_flight_locked()));
  }
}

void Transport::unpin_locked(Pin& pin) {
  pin.seq = 0;
  pin.keepalive.reset();
  --lent_;
  if (met_put_leases_ != nullptr) met_put_leases_->set(static_cast<std::int64_t>(lent_));
}

void Transport::forget_lent_locked() {
  for (Pin& pin : pins_) {
    if (pin.seq != 0) unpin_locked(pin);
  }
  for (std::uint64_t s = cum_acked_ + 1; s < next_seq_; ++s) {
    WindowSlot& slot = window_[static_cast<std::size_t>((s - 1) % window_.size())];
    if (std::exchange(slot.lent, false)) --lent_;
  }
  if (met_put_leases_ != nullptr) met_put_leases_->set(static_cast<std::int64_t>(lent_));
}

Transport::Mapped* Transport::mapping_locked(std::uint64_t token) {
  for (Mapped& m : arenas_) {
    if (token != 0 && m.arena != nullptr && m.arena->ref().token == token) return &m;
  }
  return nullptr;
}

void Transport::learn_arena_locked(const ArenaRef& ref) {
  if (ref.token == 0 || mapping_locked(ref.token) != nullptr ||
      std::ranges::find(refused_, ref.token) != refused_.end()) {
    return;
  }
  auto arena = PeerArena::map(ref, releases_);
  if (arena == nullptr) {
    // Its items keep riding the tail; this connection does not try again.
    std::shift_right(refused_.begin(), refused_.end(), 1);
    refused_.front() = ref.token;
    return;
  }
  // A free entry was never used; a full table drops the one named least
  // recently, whose views keep their own reference to the mapping.
  Mapped& slot = *std::ranges::min_element(arenas_, {}, &Mapped::used);
  slot = {.arena = std::move(arena), .used = ++replies_};
}

void Transport::name_arenas_locked(std::vector<std::uint64_t>& tokens) const {
  tokens.clear();
  for (const Mapped& m : arenas_) {
    if (m.arena != nullptr) tokens.push_back(m.arena->ref().token);
  }
}

bool Transport::drain_acks_locked() {
  puts_since_drain_ = 0;
  last_drain_ns_ = ctx_.now_ns();
  while (stream_.valid() && stream_.readable(Nanos{0})) {
    FrameHeader header{};
    EnvelopeBody body;
    if (!read_frame_locked(header, body)) return false;
    record_event(stats::EventType::kNetRx,
                 static_cast<std::int64_t>(kHeaderBytes + header.body_len),
                 static_cast<std::int64_t>(header.type));
    if (header.type == MsgType::kHeartbeat && header.payload_len == 0) continue;
    if (header.type != MsgType::kPutAck || header.payload_len != 0 ||
        !decode(body.span(), ack_scratch_, nullptr)) {
      disconnect_locked();
      return false;
    }
    apply_put_ack_locked(ack_scratch_);
  }
  return stream_.valid();
}

bool Transport::read_ack_blocking_locked(const std::stop_token& st, bool* stopped) {
  *stopped = false;
  FrameHeader header{};
  EnvelopeBody body;
  if (!read_frame_locked(header, body)) return false;
  record_event(stats::EventType::kNetRx,
               static_cast<std::int64_t>(kHeaderBytes + header.body_len),
               static_cast<std::int64_t>(header.type));
  if (header.type == MsgType::kHeartbeat && header.payload_len == 0) {
    if (stop_requested(st)) {
      // Abandoning with puts in flight: the window keeps them for a
      // resend, but this socket's stream position is now ambiguous.
      disconnect_locked();
      *stopped = true;
      return false;
    }
    return true;
  }
  if (header.type != MsgType::kPutAck || header.payload_len != 0 ||
      !decode(body.span(), ack_scratch_, nullptr)) {
    disconnect_locked();
    return false;
  }
  apply_put_ack_locked(ack_scratch_);
  return true;
}

bool Transport::flush_staged_locked(FlushReason reason) {
  if (sendbuf_.empty()) return true;
  const std::size_t bytes = sendbuf_.size();
  const std::size_t frames = staged_frames_;
  staged_frames_ = 0;
  if (sendbuf_.flush(stream_, config_.io_timeout) != IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  record_event(stats::EventType::kNetTx, static_cast<std::int64_t>(bytes),
               static_cast<std::int64_t>(MsgType::kPut));
  telemetry::Counter* reason_counter = nullptr;
  switch (reason) {
    case FlushReason::kWindow: reason_counter = met_flush_window_; break;
    case FlushReason::kBytes: reason_counter = met_flush_bytes_; break;
    case FlushReason::kIdle: reason_counter = met_flush_idle_; break;
    case FlushReason::kAge: reason_counter = met_flush_age_; break;
    case FlushReason::kExplicit: reason_counter = met_flush_explicit_; break;
  }
  if (reason_counter != nullptr) reason_counter->add();
  if (met_batch_ != nullptr && frames > 0) {
    met_batch_->observe(static_cast<std::int64_t>(frames));
  }
  return true;
}

std::span<const std::byte> Transport::encode_slot_locked(WindowSlot& slot) {
  const bool arena = peer_mapped_ours_ && slot.arena_offset != kNoArenaOffset &&
                     (slot.lent || lent_ < kMaxLeases);
  if (arena && !slot.lent) {
    slot.lent = true;
    ++lent_;
    if (met_put_leases_ != nullptr) met_put_leases_->set(static_cast<std::int64_t>(lent_));
  }
  slot.msg.item.arena_offset = arena ? slot.arena_offset : kNoArenaOffset;
  slot.msg.item.arena_token = arena ? hello_.arena.token : 0;
  encode_into(slot.msg, frame_);
  return arena ? std::span<const std::byte>{} : slot.payload;
}

bool Transport::resend_window_locked() {
  for (std::uint64_t s = cum_acked_ + 1; s < next_seq_; ++s) {
    WindowSlot& slot = window_[static_cast<std::size_t>((s - 1) % window_.size())];
    // The old link's frame may name an arena this server never mapped
    // (or omit one it now has): encode again for this link.
    const std::span<const std::byte> tail = encode_slot_locked(slot);
    if (sendbuf_.flush_with(stream_, frame_.span(), tail, config_.io_timeout) !=
        IoStatus::kOk) {
      disconnect_locked();
      return false;
    }
    record_event(stats::EventType::kNetTx,
                 static_cast<std::int64_t>(frame_.len + slot.payload.size()),
                 static_cast<std::int64_t>(MsgType::kPut));
    if (slot.msg.item.arena_offset != kNoArenaOffset && met_arena_ != nullptr) {
      met_arena_->add(slot.payload.size());
    }
  }
  return true;
}

bool Transport::read_frame_locked(FrameHeader& header, EnvelopeBody& body) {
  std::array<std::byte, kHeaderBytes> raw;
  if (stream_.recv_exact(raw, config_.io_timeout) != IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  if (!decode_header(raw, header, nullptr)) {
    disconnect_locked();
    return false;
  }
  body.len = header.body_len;  // decode_header capped this at kMaxEnvelopeBytes
  if (header.body_len > 0 &&
      stream_.recv_exact(body.storage(header.body_len), config_.io_timeout) !=
          IoStatus::kOk) {
    disconnect_locked();
    return false;
  }
  return true;
}

Transport::RpcStatus Transport::exchange_locked(const FrameBuf& frame, GetReplyMsg& reply,
                                                PayloadBuffer& payload,
                                                const std::stop_token& st) {
  if (!write_frame_locked(frame)) {
    disconnect_locked();
    return RpcStatus::kDisconnected;
  }
  FrameHeader req_header{};
  decode_header(frame.span(), req_header, nullptr);
  record_event(stats::EventType::kNetTx, static_cast<std::int64_t>(frame.len),
               static_cast<std::int64_t>(req_header.type));

  // Heartbeats count as liveness (they reset the per-frame io_timeout) but
  // are otherwise consumed here; anything else must be the expected reply.
  // A live-but-idle server heartbeats forever, so the stop token must be
  // re-checked between frames or a parked get never observes shutdown.
  EnvelopeBody body;
  for (;;) {
    FrameHeader header{};
    if (!read_frame_locked(header, body)) return RpcStatus::kDisconnected;
    if (header.type == MsgType::kHeartbeat) {
      if (header.payload_len != 0) {
        // Protocol violation — and an unconsumed payload tail would
        // desynchronize every subsequent frame.
        disconnect_locked();
        return RpcStatus::kDisconnected;
      }
      record_event(stats::EventType::kNetRx,
                   static_cast<std::int64_t>(kHeaderBytes + header.body_len),
                   static_cast<std::int64_t>(header.type));
      if (stop_requested(st)) {
        // Abandoning mid-RPC: the real reply may still arrive later and
        // would desynchronize the next exchange, so drop the link.
        disconnect_locked();
        return RpcStatus::kStopped;
      }
      continue;
    }
    if (header.type != MsgType::kGetReply || !decode(body.span(), reply, nullptr)) {
      disconnect_locked();
      return RpcStatus::kDisconnected;
    }
    const bool ok = receive_payload_locked(header, reply, payload);
    // A lease that did not become a view (a tail reply, or one this link
    // refused) goes straight back.
    if (reply.lease != 0 && !payload.borrowed()) releases_->returned(reply.lease);
    if (!ok) {
      disconnect_locked();  // rpc drops what was received, after unlocking
      return RpcStatus::kDisconnected;
    }
    // The tail came from an arena the Get did not name (wire v8): map it,
    // so later replies from it are lent.
    learn_arena_locked(reply.offer);
    // Payload bytes count in rx whichever way they travelled.
    const std::size_t arena_bytes = payload.borrowed() ? payload.size() : 0;
    record_event(stats::EventType::kNetRx,
                 static_cast<std::int64_t>(kHeaderBytes + header.body_len +
                                           header.payload_len + arena_bytes),
                 static_cast<std::int64_t>(header.type));
    if (arena_bytes > 0 && met_arena_ != nullptr) met_arena_->add(arena_bytes);
    return RpcStatus::kOk;
  }
}

bool Transport::receive_payload_locked(const FrameHeader& header, const GetReplyMsg& reply,
                                       PayloadBuffer& payload) {
  if (!reply.has_item) return header.payload_len == 0;
  const WireItem& wi = reply.item;
  if (wi.arena_offset != kNoArenaOffset) {
    // Same-host handoff: read the slab in place, in the server's arena or
    // the producer's it borrowed the item from, pinned by the reply's lease
    // until the view dies. A frame that also carries a tail, an unleased
    // slab, or an offset this link cannot read is a protocol violation.
    Mapped* const mapped = mapping_locked(wi.arena_token);
    if (header.payload_len != 0 || reply.lease == 0 || mapped == nullptr) return false;
    mapped->used = ++replies_;
    payload = PeerArena::view(mapped->arena, wi.arena_offset, wi.payload_bytes, reply.lease);
    return payload.borrowed();
  }
  // No destination of the right size means the tail cannot be read into
  // place, so the stream is unrecoverable.
  if (wi.payload_bytes != header.payload_len) return false;
  payload = ctx_.pool->acquire(header.payload_len);
  return header.payload_len == 0 ||
         stream_.recv_exact(payload.span(), config_.io_timeout) == IoStatus::kOk;
}

Transport::RpcStatus Transport::rpc(GetMsg& request, GetReplyMsg& reply,
                                    PayloadBuffer& payload, std::stop_token st,
                                    Nanos* link_wait) {
  const std::int64_t t0 = ctx_.now_ns();
  payload = PayloadBuffer{};
  for (;;) {
    if (stop_requested(st)) return RpcStatus::kStopped;

    bool sent = false;
    RpcStatus status = RpcStatus::kDisconnected;
    {
      const util::MutexLock lock(mu_);
      if (ensure_connected_locked()) {
        if (link_wait != nullptr) *link_wait = Nanos{ctx_.now_ns() - t0};
        name_arenas_locked(request.arenas);
        status = exchange_locked(encode(request), reply, payload, st);
        sent = true;
      }
    }
    // A failed get hands back nothing; a view it got returns its lease.
    if (status != RpcStatus::kOk) payload = PayloadBuffer{};
    if (sent) {
      if (status == RpcStatus::kOk && met_rpc_ != nullptr) {
        met_rpc_->observe(ctx_.now_ns() - t0);
      }
      return status;
    }

    ctx_.clock->sleep_for(kRetrySlice);  // not connected yet — keep waiting
  }
}

Transport::PutOutcome Transport::put_pipelined(PutMsg& msg,
                                               std::span<const std::byte> payload,
                                               std::shared_ptr<const void> keepalive,
                                               std::stop_token st) {
  PutOutcome out;
  if (stop_requested(st)) {
    out.status = RpcStatus::kStopped;
    return out;
  }
  {
    const util::MutexLock lock(mu_);
    if (remote_closed_) {
      // An earlier ack reported the channel closed: queue nothing more,
      // the caller stops producing.
    } else if (!ensure_connected_locked()) {
      // No link: fail fast, the caller drops the item and keeps pacing on
      // the held summary.
      out.status = RpcStatus::kDisconnected;
    } else if ((in_flight_locked() + 1 >= effective_window_locked() ||
                ++puts_since_drain_ >= kDrainEvery ||
                Nanos{ctx_.now_ns() - last_drain_ns_} >= kFlushInterval ||
                (sendbuf_.empty() && in_flight_locked() > 0 &&
                 payload.size() <= kInlinePayloadMax)) &&
               !drain_acks_locked()) {
      // Collect already-arrived acks when the window is about to block —
      // polling the socket on every put costs a syscall the steady state
      // doesn't need (coalesced acks arrive in clumps anyway). The
      // kDrainEvery cadence bounds summary-STP feedback staleness and
      // keeps a slow producer's receive buffer drained of heartbeats even
      // though its window never fills. A small put that would open a new
      // batch behind unacked puts also drains, so the idle test below
      // sees every ack that has arrived. False = link died (a hung-up
      // peer reads as end of stream); the item was never queued.
      out.status = RpcStatus::kDisconnected;
    } else {
      // Make room: window-full means we owe the server a flush (it cannot
      // ack frames still sitting in our staging buffer) and then a
      // blocking read until a coalesced ack frees a slot.
      bool ok = true;
      while (ok && !remote_closed_ &&
             (in_flight_locked() >= effective_window_locked() ||
              (in_flight_locked() > 0 &&
               in_flight_bytes_ + payload.size() > kPutWindowBytes))) {
        bool stopped = false;
        if (!flush_staged_locked(FlushReason::kWindow) ||
            !read_ack_blocking_locked(st, &stopped)) {
          out.status = stopped ? RpcStatus::kStopped : RpcStatus::kDisconnected;
          ok = false;
        }
      }
      if (ok && !remote_closed_) {  // an ack read above may have closed it
        // Nagle: a put onto an idle link leaves at once; only puts behind
        // unacked ones are staged to batch with what follows.
        const bool idle = in_flight_locked() == 0;
        msg.seq = next_seq_++;
        WindowSlot& slot =
            window_[static_cast<std::size_t>((msg.seq - 1) % window_.size())];
        slot.msg = msg;
        slot.payload = payload;
        slot.arena_offset = ctx_.pool->arena_offset(payload.data());
        slot.lent = false;
        const std::span<const std::byte> tail = encode_slot_locked(slot);
        slot.keepalive = std::move(keepalive);
        in_flight_bytes_ += payload.size();
        if (met_window_ != nullptr) {
          met_window_->set(static_cast<std::int64_t>(in_flight_locked()));
        }

        if (staged_frames_ == 0) first_staged_ns_ = ctx_.now_ns();
        bool flushed_inline = false;
        if (payload.size() > kInlinePayloadMax) {
          // Zero-copy tail: prior staged frames + this envelope + the slab
          // payload in one sendmsg — or no tail at all when the server
          // reads the payload in our arena.
          const std::size_t batch = staged_frames_ + 1;
          staged_frames_ = 0;
          if (sendbuf_.flush_with(stream_, frame_.span(), tail,
                                  config_.io_timeout) != IoStatus::kOk) {
            disconnect_locked();  // queued: the window will resend it
          } else {
            record_event(stats::EventType::kNetTx,
                         static_cast<std::int64_t>(frame_.len + slot.payload.size()),
                         static_cast<std::int64_t>(MsgType::kPut));
            if (slot.msg.item.arena_offset != kNoArenaOffset && met_arena_ != nullptr) {
              met_arena_->add(payload.size());
            }
            if (met_flush_bytes_ != nullptr) met_flush_bytes_->add();
            if (met_batch_ != nullptr) {
              met_batch_->observe(static_cast<std::int64_t>(batch));
            }
          }
          flushed_inline = true;
        } else {
          const std::size_t need = frame_.len + payload.size();
          if (sendbuf_.capacity_left() < need &&
              !flush_staged_locked(FlushReason::kBytes)) {
            flushed_inline = true;  // link died; window keeps the put
          } else if (stream_.valid()) {
            sendbuf_.append(frame_.span());
            if (!payload.empty()) sendbuf_.append(payload);
            ++staged_frames_;
            if (staged_frames_ == 1) first_staged_ns_ = ctx_.now_ns();
          }
        }

        // Flush triggers beyond the inline ones: the window just filled
        // (next put would block anyway), the batch is big enough to
        // amortize its syscall, the link was idle before this put, or the
        // oldest staged frame aged out.
        if (!flushed_inline && stream_.valid() && !sendbuf_.empty()) {
          if (in_flight_locked() >= effective_window_locked() ||
              in_flight_bytes_ >= kPutWindowBytes) {
            flush_staged_locked(FlushReason::kWindow);
          } else if (sendbuf_.size() >= kFlushBytes) {
            flush_staged_locked(FlushReason::kBytes);
          } else if (idle) {
            flush_staged_locked(FlushReason::kIdle);
          } else if (Nanos{ctx_.now_ns() - first_staged_ns_} >= kFlushInterval) {
            flush_staged_locked(FlushReason::kAge);
          }
        }
        out.status = RpcStatus::kOk;
      }
    }
    out.summary = last_ack_summary_;
    out.closed = remote_closed_;
  }
  return out;
}

bool Transport::flush_puts(std::stop_token st) {
  for (;;) {
    if (stop_requested(st)) return false;
    bool drained = false;
    bool wait_for_link = false;
    bool stopped = false;
    {
      const util::MutexLock lock(mu_);
      if (in_flight_locked() == 0) {
        drained = true;
      } else if (!ensure_connected_locked()) {
        wait_for_link = true;  // backoff gate; sleep below and retry
      } else if (flush_staged_locked(FlushReason::kExplicit)) {
        read_ack_blocking_locked(st, &stopped);
      }
    }
    if (stopped) return false;
    if (drained) return true;
    if (wait_for_link) ctx_.clock->sleep_for(kRetrySlice);
  }
}

bool Transport::send_staged() {
  // A link held by another thread is mid-put there (perhaps waiting out
  // a full window on this very get's progress): that thread flushes its
  // own staging, so skip rather than wait.
  if (!mu_.try_lock()) return true;
  const bool ok = !stream_.valid() || flush_staged_locked(FlushReason::kExplicit);
  mu_.unlock();
  return ok;
}

std::size_t Transport::puts_in_flight() const {
  const util::MutexLock lock(mu_);
  return in_flight_locked();
}

}  // namespace stampede::net
