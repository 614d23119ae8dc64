#include "net/wire_protocol.hpp"

#include <utility>

#include "maddness/framing.hpp"
#include "util/wire.hpp"

namespace ssma::net {

namespace {

/// Builds one frame in a single pre-sized buffer: the header slot, the
/// prelude, then little-endian fields appended in order; seal() fills
/// the slot. `var_bytes` (the message's strings and arrays) only sizes
/// the reservation; every message's fixed fields fit in kFixedBytes.
class FrameWriter {
 public:
  FrameWriter(MsgType type, std::uint64_t corr, std::size_t var_bytes) {
    buf_.reserve(maddness::kFrameHeaderBytes + kFixedBytes + var_bytes);
    buf_.resize(maddness::kFrameHeaderBytes);
    u8(kWireVersion);
    u8(static_cast<std::uint8_t>(type));
    u64(corr);
  }

  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void i16s(const std::vector<std::int16_t>& v) {
    // Locals only in the loop, so the char stores cannot alias its
    // bound and the compiler can vectorize it.
    const std::size_t n = v.size();
    const std::size_t at = buf_.size();
    buf_.resize(at + 2 * n);
    const std::int16_t* src = v.data();
    char* dst = buf_.data() + at;
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::uint16_t>(src[i]);
      dst[2 * i] = static_cast<char>(u & 0xFFu);
      dst[2 * i + 1] = static_cast<char>(u >> 8);
    }
  }

  std::string seal() {
    maddness::seal_frame(&buf_);
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kFixedBytes = 64;

  void le(std::uint64_t v, int nbytes) {
    char b[8];
    wire::store_le(b, v, nbytes);
    buf_.append(b, static_cast<std::size_t>(nbytes));
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a parsed payload. Every
/// getter returns false instead of reading past the end, so a malformed
/// message can never make the server index out of bounds.
class Cursor {
 public:
  Cursor(const std::string& s) : p_(s.data()), end_(s.data() + s.size()) {}

  bool u8(std::uint8_t* v) {
    if (end_ - p_ < 1) return false;
    *v = static_cast<std::uint8_t>(*p_++);
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (end_ - p_ < 4) return false;
    *v = static_cast<std::uint32_t>(wire::load_le(p_, 4));
    p_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (end_ - p_ < 8) return false;
    *v = wire::load_le(p_, 8);
    p_ += 8;
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t n = 0;
    return u32(&n) && bytes(v, n);
  }
  /// `n` raw bytes into a std::string or a std::vector<std::uint8_t>.
  template <typename Bytes>
  bool bytes(Bytes* v, std::uint64_t n) {
    if (static_cast<std::uint64_t>(end_ - p_) < n) return false;
    using T = typename Bytes::value_type;
    const auto* b = reinterpret_cast<const T*>(p_);
    v->assign(b, b + n);
    p_ += n;
    return true;
  }
  bool i16s(std::vector<std::int16_t>* v, std::uint64_t n) {
    // Halve the bytes left rather than double n: n * 2 wraps for a
    // hostile count.
    if (static_cast<std::uint64_t>(end_ - p_) / 2 < n) return false;
    v->resize(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto lo = static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(p_[2 * i]));
      const auto hi = static_cast<std::uint16_t>(
          static_cast<std::uint8_t>(p_[2 * i + 1]));
      (*v)[i] = static_cast<std::int16_t>(
          static_cast<std::uint16_t>(lo | (hi << 8)));
    }
    p_ += static_cast<std::ptrdiff_t>(n * 2);
    return true;
  }
  bool done() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

bool parse_prelude(Cursor& c, MsgType want, std::uint64_t* corr) {
  std::uint8_t version = 0, type = 0;
  if (!c.u8(&version) || version != kWireVersion) return false;
  if (!c.u8(&type) || type != static_cast<std::uint8_t>(want))
    return false;
  return c.u64(corr);
}

}  // namespace

std::string RpcRequest::encode() const {
  FrameWriter w(MsgType::kInferRequest, correlation_id,
                tenant.size() + model_ref.size() + codes.size());
  w.str(tenant);
  w.str(model_ref);
  w.u32(deadline_ms);
  w.u8(priority);
  w.u64(rows);
  w.u64(codes.size());
  w.bytes(codes.data(), codes.size());
  return w.seal();
}

std::string RpcResponse::encode() const {
  FrameWriter w(MsgType::kInferResponse, correlation_id,
                model.size() + 2 * outputs.size() + message.size());
  w.u8(status);
  w.str(model);
  w.u64(model_version);
  w.u64(rows);
  w.u64(outputs.size());
  w.i16s(outputs);
  w.str(message);
  return w.seal();
}

std::string ReplMessage::encode() const {
  // The prelude's correlation-id slot carries `arg`.
  FrameWriter w(type, arg, bytes.size());
  w.u64(arg2);
  w.u64(bytes.size());
  w.bytes(bytes.data(), bytes.size());
  return w.seal();
}

bool parse_repl(const std::string& payload, ReplMessage* out) {
  Cursor c(payload);
  std::uint8_t version = 0, type = 0;
  if (!c.u8(&version) || version != kWireVersion) return false;
  if (!c.u8(&type) ||
      type < static_cast<std::uint8_t>(MsgType::kReplHello) ||
      type > static_cast<std::uint8_t>(MsgType::kReplBase))
    return false;
  out->type = static_cast<MsgType>(type);
  if (!c.u64(&out->arg)) return false;
  if (!c.u64(&out->arg2)) return false;
  std::uint64_t n = 0;
  if (!c.u64(&n)) return false;
  if (!c.bytes(&out->bytes, n)) return false;
  return c.done();
}

std::string AdminRequest::encode() const {
  FrameWriter w(MsgType::kAdminRequest, correlation_id, target.size());
  w.u8(op);
  w.str(target);
  return w.seal();
}

std::string AdminResponse::encode() const {
  FrameWriter w(MsgType::kAdminResponse, correlation_id, body.size());
  w.u8(status);
  w.u64(arg);
  w.str(body);
  return w.seal();
}

bool parse_admin_request(const std::string& payload, AdminRequest* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kAdminRequest, &out->correlation_id))
    return false;
  if (!c.u8(&out->op)) return false;
  if (!c.str(&out->target)) return false;
  return c.done();
}

bool parse_admin_response(const std::string& payload,
                          AdminResponse* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kAdminResponse, &out->correlation_id))
    return false;
  if (!c.u8(&out->status)) return false;
  if (!c.u64(&out->arg)) return false;
  if (!c.str(&out->body)) return false;
  return c.done();
}

bool parse_request(const std::string& payload, RpcRequest* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kInferRequest, &out->correlation_id))
    return false;
  if (!c.str(&out->tenant)) return false;
  if (!c.str(&out->model_ref)) return false;
  if (!c.u32(&out->deadline_ms)) return false;
  if (!c.u8(&out->priority)) return false;
  if (!c.u64(&out->rows)) return false;
  std::uint64_t ncodes = 0;
  if (!c.u64(&ncodes)) return false;
  if (!c.bytes(&out->codes, ncodes)) return false;
  return c.done();
}

bool parse_response(const std::string& payload, RpcResponse* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kInferResponse, &out->correlation_id))
    return false;
  if (!c.u8(&out->status)) return false;
  if (!c.str(&out->model)) return false;
  if (!c.u64(&out->model_version)) return false;
  if (!c.u64(&out->rows)) return false;
  std::uint64_t nout = 0;
  if (!c.u64(&nout)) return false;
  if (!c.i16s(&out->outputs, nout)) return false;
  if (!c.str(&out->message)) return false;
  return c.done();
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Result FrameDecoder::next(std::string* payload) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  constexpr std::size_t kHdr = maddness::kFrameHeaderBytes;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kHdr) return Result::kNeedMore;
  const char* p = buf_.data() + pos_;
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  maddness::read_frame_header(p, &len, &crc);
  // An oversized length word means a desynchronized or hostile stream;
  // there is no way to resynchronize framing, so the caller must close.
  if (len > max_frame_bytes_) return Result::kBad;
  if (avail < kHdr + len) return Result::kNeedMore;
  if (maddness::crc32(p + kHdr, static_cast<std::size_t>(len)) != crc)
    return Result::kBad;
  payload->assign(p + kHdr, static_cast<std::size_t>(len));
  pos_ += kHdr + static_cast<std::size_t>(len);
  return Result::kFrame;
}

}  // namespace ssma::net
