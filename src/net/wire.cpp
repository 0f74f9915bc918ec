#include "net/wire.hpp"

#include <cstring>
#include <random>
#include <stdexcept>

namespace stampede::net {
namespace {

/// Bounded little-endian writer over a FrameBuf. Variable-length fields
/// are validated against the same hard caps the decoders enforce: a
/// message that would be rejected by every peer (or whose length prefix
/// would truncate and desynchronize the frame) throws std::length_error
/// at the sender, where the bug is, instead of causing a silent connect
/// loop. The caps also guarantee a conforming envelope fits the buffer,
/// so the capacity check is a backstop, not a working limit.
class Writer {
 public:
  explicit Writer(FrameBuf& out) : out_(out) {}

  void u8(std::uint8_t v) {
    check(out_.len < out_.data.size(), "envelope exceeds kMaxEnvelopeBytes");
    out_.data[out_.len++] = std::byte{v};
  }

  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }

  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    check(s.size() <= kMaxNameBytes, "string exceeds kMaxNameBytes");
    check(out_.data.size() - out_.len >= 2 + s.size(),
          "envelope exceeds kMaxEnvelopeBytes");
    u16(static_cast<std::uint16_t>(s.size()));
    std::memcpy(out_.data.data() + out_.len, s.data(), s.size());
    out_.len += s.size();
  }

  /// A u16 count, then one u64 per id: leases, put seqs or arena tokens.
  void ids(const std::vector<std::uint64_t>& ids, std::size_t cap, const char* what) {
    check(ids.size() <= cap, what);
    u16(static_cast<std::uint16_t>(ids.size()));
    for (std::uint64_t id : ids) u64(id);
  }

  void item(const WireItem& it) {
    check(it.payload_bytes <= kMaxPayloadBytes, "payload exceeds kMaxPayloadBytes");
    i64(it.ts);
    i64(it.produce_cost_ns);
    u32(it.payload_bytes);
    u64(it.arena_offset);
    u64(it.arena_token);
  }

  void arena(const ArenaRef& a) {
    u32(static_cast<std::uint32_t>(a.pid));
    u32(static_cast<std::uint32_t>(a.fd));
    u64(a.token);
    u64(a.size);
  }

 private:
  static void check(bool ok, const char* what) {
    if (!ok) throw std::length_error(std::string("net encode: ") + what);
  }

  FrameBuf& out_;
};

/// Bounds-checked little-endian reader. Every accessor returns false once
/// the cursor would pass the end; `fail()` latches so a single check after
/// a run of reads suffices.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> buf) : buf_(buf) {}

  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }

  bool u16(std::uint16_t& v) {
    std::uint8_t lo = 0, hi = 0;
    if (!u8(lo) || !u8(hi)) return false;
    v = static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(hi) << 8));
    return true;
  }

  bool u32(std::uint32_t& v) {
    std::uint16_t lo = 0, hi = 0;
    if (!u16(lo) || !u16(hi)) return false;
    v = static_cast<std::uint32_t>(lo) | (static_cast<std::uint32_t>(hi) << 16);
    return true;
  }

  bool u64(std::uint64_t& v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(lo) || !u32(hi)) return false;
    v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }

  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }

  bool boolean(bool& v) {
    std::uint8_t b = 0;
    if (!u8(b)) return false;
    if (b > 1) return set_err("bad bool encoding");
    v = b != 0;
    return true;
  }

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("attach-time name field, capped at kMaxNameBytes; put/get envelopes carry no strings")
  bool str(std::string& s) {
    std::uint16_t len = 0;
    if (!u16(len)) return false;
    if (len > kMaxNameBytes) return set_err("string exceeds kMaxNameBytes");
    if (!need(len)) return false;
    s.assign(reinterpret_cast<const char*>(buf_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("decodes into the caller's reused vector, capped at kMaxLeases or kMaxArenas; capacity amortizes to zero allocations")
  bool ids(std::vector<std::uint64_t>& ids, std::size_t cap, const char* what) {
    std::uint16_t count = 0;
    if (!u16(count)) return false;
    if (count > cap) return set_err(what);
    ids.clear();
    ids.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      std::uint64_t id = 0;
      if (!u64(id)) return false;
      ids.push_back(id);
    }
    return true;
  }

  bool item(WireItem& it) {
    if (!i64(it.ts) || !i64(it.produce_cost_ns) || !u32(it.payload_bytes)) return false;
    if (it.payload_bytes > kMaxPayloadBytes) {
      return set_err("payload exceeds kMaxPayloadBytes");
    }
    return u64(it.arena_offset) && u64(it.arena_token);
  }

  bool arena(ArenaRef& a) {
    std::uint32_t pid = 0, fd = 0;
    if (!u32(pid) || !u32(fd) || !u64(a.token) || !u64(a.size)) return false;
    a.pid = static_cast<std::int32_t>(pid);
    a.fd = static_cast<std::int32_t>(fd);
    return true;
  }

  /// Everything consumed and nothing failed: a complete, exact decode.
  bool done() const { return !failed_ && pos_ == buf_.size(); }

  const char* error() const {
    if (err_ != nullptr) return err_;
    if (failed_) return "truncated buffer";
    if (pos_ != buf_.size()) return "trailing bytes after message";
    return "ok";
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || buf_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  bool set_err(const char* what) {
    failed_ = true;
    if (err_ == nullptr) err_ = what;
    return false;
  }

  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
  bool failed_ = false;
  const char* err_ = nullptr;
};

void make_frame_into(FrameBuf& frame, MsgType type, std::uint32_t payload_len,
                     const auto& write_body) {
  frame.len = 0;
  Writer header(frame);
  header.u32(kWireMagic);
  header.u32(0);  // envelope length patched below
  header.u8(kWireVersion);
  header.u8(static_cast<std::uint8_t>(type));
  header.u16(0);  // reserved
  header.u32(payload_len);
  Writer body(frame);
  write_body(body);
  const auto body_len = static_cast<std::uint32_t>(frame.len - kHeaderBytes);
  frame.data[4] = std::byte{static_cast<std::uint8_t>(body_len)};
  frame.data[5] = std::byte{static_cast<std::uint8_t>(body_len >> 8)};
  frame.data[6] = std::byte{static_cast<std::uint8_t>(body_len >> 16)};
  frame.data[7] = std::byte{static_cast<std::uint8_t>(body_len >> 24)};
}

FrameBuf make_frame(MsgType type, std::uint32_t payload_len, const auto& write_body) {
  FrameBuf frame;
  make_frame_into(frame, type, payload_len, write_body);
  return frame;
}

/// The payload tail an item's frame carries: none when the bytes wait in
/// the sender's arena.
std::uint32_t tail_bytes(const WireItem& it) {
  return it.arena_offset == kNoArenaOffset ? it.payload_bytes : 0;
}

bool finish(const Reader& r, std::string* err) {
  if (r.done()) return true;
  if (err != nullptr) *err = r.error();
  return false;
}

}  // namespace

std::uint64_t random_wire_id() {
  std::random_device rd;
  const std::uint64_t id = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  return id == 0 ? 1 : id;
}

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloAck: return "hello_ack";
    case MsgType::kPut: return "put";
    case MsgType::kPutAck: return "put_ack";
    case MsgType::kGet: return "get";
    case MsgType::kGetReply: return "get_reply";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kRelease: return "release";
  }
  return "unknown";
}

FrameBuf encode(const HelloMsg& m) {
  return make_frame(MsgType::kHello, 0, [&](Writer& w) {
    w.str(m.channel);
    w.u32(static_cast<std::uint32_t>(m.producer_key));
    w.u32(static_cast<std::uint32_t>(m.consumer_key));
    w.u64(m.session);
    w.u64(m.start_seq);
    w.arena(m.arena);
  });
}

FrameBuf encode(const HelloAckMsg& m) {
  return make_frame(MsgType::kHelloAck, 0, [&](Writer& w) {
    w.u8(m.ok ? 1 : 0);
    w.u32(m.credits);
    w.arena(m.arena);
    w.u8(m.peer_mapped ? 1 : 0);
    w.u64(m.instance);
  });
}

FrameBuf encode(const PutMsg& m) {
  FrameBuf frame;
  encode_into(m, frame);
  return frame;
}

void encode_into(const PutMsg& m, FrameBuf& out) {
  make_frame_into(out, MsgType::kPut, tail_bytes(m.item), [&](Writer& w) {
    w.u64(m.seq);
    w.item(m.item);
  });
}

FrameBuf encode(const PutAckMsg& m) {
  return make_frame(MsgType::kPutAck, 0, [&](Writer& w) {
    w.u8(m.closed ? 1 : 0);
    w.i64(m.summary.count());
    w.u64(m.cum_seq);
    w.u32(m.credits);
    w.ids(m.held, kMaxLeases, "held list exceeds kMaxLeases");
  });
}

FrameBuf encode(const GetMsg& m) {
  return make_frame(MsgType::kGet, 0, [&](Writer& w) {
    w.i64(m.consumer_summary.count());
    w.i64(m.guarantee);
    w.ids(m.arenas, kMaxArenas, "arena list exceeds kMaxArenas");
  });
}

FrameBuf encode(const GetReplyMsg& m) {
  const std::uint32_t payload_len = m.has_item ? tail_bytes(m.item) : 0;
  return make_frame(MsgType::kGetReply, payload_len, [&](Writer& w) {
    w.u8(m.has_item ? 1 : 0);
    w.u8(m.closed ? 1 : 0);
    if (m.has_item) w.item(m.item);
    w.i64(m.summary.count());
    w.i64(m.waited.count());
    w.u64(m.lease);
    w.arena(m.offer);
  });
}

FrameBuf encode(const ReleaseMsg& m) {
  return make_frame(MsgType::kRelease, 0, [&](Writer& w) {
    w.ids(m.released, kMaxLeases, "lease list exceeds kMaxLeases");
  });
}

FrameBuf encode_heartbeat() {
  return make_frame(MsgType::kHeartbeat, 0, [](Writer&) {});
}

bool decode_header(std::span<const std::byte> buf, FrameHeader& out, std::string* err) {
  Reader r(buf.first(buf.size() < kHeaderBytes ? buf.size() : kHeaderBytes));
  std::uint32_t magic = 0, body_len = 0, payload_len = 0;
  std::uint8_t version = 0, type = 0;
  std::uint16_t reserved = 0;
  if (!r.u32(magic) || !r.u32(body_len) || !r.u8(version) || !r.u8(type) ||
      !r.u16(reserved) || !r.u32(payload_len)) {
    if (err != nullptr) *err = "header truncated";
    return false;
  }
  if (magic != kWireMagic) {
    if (err != nullptr) *err = "bad magic";
    return false;
  }
  if (version != kWireVersion) {
    if (err != nullptr) *err = "unsupported wire version";
    return false;
  }
  if (!valid_type(type)) {
    if (err != nullptr) *err = "unknown message type";
    return false;
  }
  if (body_len > kMaxEnvelopeBytes) {
    if (err != nullptr) *err = "envelope exceeds kMaxEnvelopeBytes";
    return false;
  }
  if (payload_len > kMaxPayloadBytes) {
    if (err != nullptr) *err = "payload exceeds kMaxPayloadBytes";
    return false;
  }
  out.type = static_cast<MsgType>(type);
  out.body_len = body_len;
  out.payload_len = payload_len;
  return true;
}

bool decode(std::span<const std::byte> body, HelloMsg& out, std::string* err) {
  Reader r(body);
  std::uint32_t producer = 0, consumer = 0;
  if (r.str(out.channel) && r.u32(producer) && r.u32(consumer) &&
      r.u64(out.session) && r.u64(out.start_seq) && r.arena(out.arena)) {
    out.producer_key = static_cast<std::int32_t>(producer);
    out.consumer_key = static_cast<std::int32_t>(consumer);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, HelloAckMsg& out, std::string* err) {
  Reader r(body);
  if (r.boolean(out.ok) && r.u32(out.credits) && r.arena(out.arena) &&
      r.boolean(out.peer_mapped)) {
    r.u64(out.instance);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, PutMsg& out, std::string* err) {
  Reader r(body);
  if (r.u64(out.seq)) r.item(out.item);
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, PutAckMsg& out, std::string* err) {
  Reader r(body);
  std::int64_t summary_ns = 0;
  if (r.boolean(out.closed) && r.i64(summary_ns) &&
      r.u64(out.cum_seq) && r.u32(out.credits)) {
    out.summary = Nanos{summary_ns};
    r.ids(out.held, kMaxLeases, "held list exceeds kMaxLeases");
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, GetMsg& out, std::string* err) {
  Reader r(body);
  std::int64_t summary_ns = 0;
  if (r.i64(summary_ns) && r.i64(out.guarantee) &&
      r.ids(out.arenas, kMaxArenas, "arena list exceeds kMaxArenas")) {
    out.consumer_summary = Nanos{summary_ns};
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, GetReplyMsg& out, std::string* err) {
  Reader r(body);
  std::int64_t summary_ns = 0;
  std::int64_t waited_ns = 0;
  out.item = WireItem{};  // a reply without an item carries none
  if (r.boolean(out.has_item) && r.boolean(out.closed) &&
      (!out.has_item || r.item(out.item)) && r.i64(summary_ns) && r.i64(waited_ns) &&
      r.u64(out.lease)) {
    out.summary = Nanos{summary_ns};
    out.waited = Nanos{waited_ns};
    r.arena(out.offer);
  }
  return finish(r, err);
}

bool decode(std::span<const std::byte> body, ReleaseMsg& out, std::string* err) {
  Reader r(body);
  r.ids(out.released, kMaxLeases, "lease list exceeds kMaxLeases");
  return finish(r, err);
}

}  // namespace stampede::net
