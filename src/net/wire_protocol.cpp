#include "net/wire_protocol.hpp"

#include "maddness/framing.hpp"
#include "util/wire.hpp"

namespace ssma::net {

namespace {

/// Every message's fixed fields fit in this many bytes; its strings and
/// arrays add to it.
constexpr std::size_t kFixedBytes = 64;

/// Starts a frame in one pre-sized buffer: the header slot at offset 0,
/// then the prelude. `var_bytes` (the message's strings and arrays) only
/// sizes the reservation.
wire::Writer open_frame(MsgType type, std::uint64_t corr,
                        std::size_t var_bytes) {
  wire::Writer w(maddness::kFrameHeaderBytes + kFixedBytes + var_bytes);
  w.skip(maddness::kFrameHeaderBytes);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(corr);
  return w;
}

std::string seal(wire::Writer& w) {
  maddness::seal_frame(w, 0);
  return w.take();
}

/// Sets *corr only once the version and type match, so a server can
/// answer a malformed message under the id it carried, or under 0.
bool parse_prelude(wire::Reader& r, MsgType want, std::uint64_t* corr) {
  if (r.u8() != kWireVersion || r.u8() != static_cast<std::uint8_t>(want))
    return false;
  const std::uint64_t id = r.u64();
  if (!r.ok()) return false;
  *corr = id;
  return true;
}

}  // namespace

std::string RpcRequest::encode() const {
  wire::Writer w = open_frame(MsgType::kInferRequest, correlation_id,
                              tenant.size() + model_ref.size() +
                                  codes.size());
  w.str(tenant);
  w.str(model_ref);
  w.u32(deadline_ms);
  w.u8(priority);
  w.u64(rows);
  w.u64(codes.size());
  w.bytes(codes.data(), codes.size());
  return seal(w);
}

std::string RpcResponse::encode(const std::int16_t* outputs,
                                std::size_t n) const {
  wire::Writer w = open_frame(MsgType::kInferResponse, correlation_id,
                              model.size() + 2 * n + message.size());
  w.u8(status);
  w.str(model);
  w.u64(model_version);
  w.u64(rows);
  w.u64(n);
  w.i16s(outputs, n);
  w.str(message);
  return seal(w);
}

std::string ReplMessage::encode() const {
  // The prelude's correlation-id slot carries `arg`.
  wire::Writer w = open_frame(type, arg, bytes.size());
  w.u64(arg2);
  w.u64(bytes.size());
  w.bytes(bytes.data(), bytes.size());
  return seal(w);
}

bool parse_repl(std::string_view payload, ReplMessage* out) {
  wire::Reader r(payload);
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  if (version != kWireVersion ||
      type < static_cast<std::uint8_t>(MsgType::kReplHello) ||
      type > static_cast<std::uint8_t>(MsgType::kReplBase))
    return false;
  out->type = static_cast<MsgType>(type);
  out->arg = r.u64();
  out->arg2 = r.u64();
  out->bytes = r.bytes(r.u64());
  return r.done();
}

std::string AdminRequest::encode() const {
  wire::Writer w =
      open_frame(MsgType::kAdminRequest, correlation_id, target.size());
  w.u8(op);
  w.str(target);
  return seal(w);
}

std::string AdminResponse::encode() const {
  wire::Writer w =
      open_frame(MsgType::kAdminResponse, correlation_id, body.size());
  w.u8(status);
  w.u64(arg);
  w.str(body);
  return seal(w);
}

bool parse_admin_request(std::string_view payload, AdminRequest* out) {
  wire::Reader r(payload);
  if (!parse_prelude(r, MsgType::kAdminRequest, &out->correlation_id))
    return false;
  out->op = r.u8();
  out->target = r.str();
  return r.done();
}

bool parse_admin_response(std::string_view payload,
                          AdminResponse* out) {
  wire::Reader r(payload);
  if (!parse_prelude(r, MsgType::kAdminResponse, &out->correlation_id))
    return false;
  out->status = r.u8();
  out->arg = r.u64();
  out->body = r.str();
  return r.done();
}

bool parse_request(std::string_view payload, RpcRequest* out) {
  wire::Reader r(payload);
  if (!parse_prelude(r, MsgType::kInferRequest, &out->correlation_id))
    return false;
  out->tenant = r.str();
  out->model_ref = r.str();
  out->deadline_ms = r.u32();
  out->priority = r.u8();
  out->rows = r.u64();
  r.u8s(&out->codes, r.u64());
  return r.done();
}

bool parse_response(std::string_view payload, RpcResponse* out) {
  wire::Reader r(payload);
  if (!parse_prelude(r, MsgType::kInferResponse, &out->correlation_id))
    return false;
  out->status = r.u8();
  out->model = r.str();
  out->model_version = r.u64();
  out->rows = r.u64();
  r.i16s(&out->outputs, r.u64());
  out->message = r.str();
  return r.done();
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Result FrameDecoder::next(std::string_view* payload) {
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
  *payload = std::string_view(p + kHdr, static_cast<std::size_t>(len));
  pos_ += kHdr + static_cast<std::size_t>(len);
  return Result::kFrame;
}

}  // namespace ssma::net
