#include "net/wire_protocol.hpp"

#include <cstring>
#include <sstream>

#include "maddness/framing.hpp"
#include "util/wire.hpp"

namespace ssma::net {

namespace {

void put_string(std::ostream& os, const std::string& s) {
  wire::put_u32(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

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
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(p_[i]))
            << (8 * i);
    p_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (end_ - p_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(p_[i]))
            << (8 * i);
    p_ += 8;
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (static_cast<std::size_t>(end_ - p_) < n) return false;
    v->assign(p_, n);
    p_ += n;
    return true;
  }
  bool bytes(std::vector<std::uint8_t>* v, std::uint64_t n) {
    if (static_cast<std::uint64_t>(end_ - p_) < n) return false;
    v->assign(reinterpret_cast<const std::uint8_t*>(p_),
              reinterpret_cast<const std::uint8_t*>(p_) + n);
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

std::string framed(const std::string& payload) {
  std::ostringstream os;
  maddness::write_framed_blob(os, payload);
  return os.str();
}

}  // namespace

std::string RpcRequest::encode() const {
  std::ostringstream os;
  wire::put_u8(os, kWireVersion);
  wire::put_u8(os, static_cast<std::uint8_t>(MsgType::kInferRequest));
  wire::put_u64(os, correlation_id);
  put_string(os, tenant);
  put_string(os, model_ref);
  wire::put_u32(os, deadline_ms);
  wire::put_u8(os, priority);
  wire::put_u64(os, rows);
  wire::put_u64(os, codes.size());
  os.write(reinterpret_cast<const char*>(codes.data()),
           static_cast<std::streamsize>(codes.size()));
  return framed(os.str());
}

std::string RpcResponse::encode() const {
  std::ostringstream os;
  wire::put_u8(os, kWireVersion);
  wire::put_u8(os, static_cast<std::uint8_t>(MsgType::kInferResponse));
  wire::put_u64(os, correlation_id);
  wire::put_u8(os, status);
  put_string(os, model);
  wire::put_u64(os, model_version);
  wire::put_u64(os, rows);
  wire::put_u64(os, outputs.size());
  for (std::int16_t o : outputs) {
    const auto u = static_cast<std::uint16_t>(o);
    wire::put_u8(os, static_cast<std::uint8_t>(u & 0xFF));
    wire::put_u8(os, static_cast<std::uint8_t>(u >> 8));
  }
  put_string(os, message);
  return framed(os.str());
}

std::string ReplMessage::encode() const {
  std::ostringstream os;
  wire::put_u8(os, kWireVersion);
  wire::put_u8(os, static_cast<std::uint8_t>(type));
  wire::put_u64(os, arg);
  wire::put_u64(os, arg2);
  wire::put_u64(os, bytes.size());
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return framed(os.str());
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
  std::vector<std::uint8_t> body;
  if (!c.bytes(&body, n)) return false;
  out->bytes.assign(body.begin(), body.end());
  return c.done();
}

std::string AdminRequest::encode() const {
  std::ostringstream os;
  wire::put_u8(os, kWireVersion);
  wire::put_u8(os, static_cast<std::uint8_t>(MsgType::kAdminRequest));
  wire::put_u64(os, correlation_id);
  wire::put_u8(os, op);
  put_string(os, target);
  return framed(os.str());
}

std::string AdminResponse::encode() const {
  std::ostringstream os;
  wire::put_u8(os, kWireVersion);
  wire::put_u8(os, static_cast<std::uint8_t>(MsgType::kAdminResponse));
  wire::put_u64(os, correlation_id);
  wire::put_u8(os, status);
  wire::put_u64(os, arg);
  put_string(os, body);
  return framed(os.str());
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
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 12) return Result::kNeedMore;  // len(8) + crc(4)
  const char* p = buf_.data() + pos_;
  std::uint64_t len = 0;
  for (int i = 0; i < 8; ++i)
    len |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i]))
           << (8 * i);
  // An oversized length word means a desynchronized or hostile stream;
  // there is no way to resynchronize framing, so the caller must close.
  if (len > max_frame_bytes_) return Result::kBad;
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i)
    crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[8 + i]))
           << (8 * i);
  if (avail < 12 + len) return Result::kNeedMore;
  if (maddness::crc32(p + 12, static_cast<std::size_t>(len)) != crc)
    return Result::kBad;
  payload->assign(p + 12, static_cast<std::size_t>(len));
  pos_ += 12 + static_cast<std::size_t>(len);
  return Result::kFrame;
}

}  // namespace ssma::net
