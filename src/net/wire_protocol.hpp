// Binary RPC protocol of the TCP front door. A message is one frame in
// the library's standard checksummed framing (maddness/framing.hpp,
// shared with the journal and checkpoints):
//
//   [u64 payload length][u32 CRC-32 of payload][payload bytes]
//
// written little-endian. Each encode() builds its whole frame in one
// buffer. The payload starts with a fixed prelude:
//
//   [u8 version][u8 msg type][u64 correlation id]
//
// followed by per-type fields (strings are u32 length + raw bytes,
// int16 arrays are little-endian byte pairs). Correlation ids are
// chosen by the client and echoed verbatim, so responses can complete
// out of order over one pipelined connection.
//
// Error handling has two tiers, split at the frame boundary:
//   - a bad frame (oversized length word, CRC mismatch) means the byte
//     stream itself can no longer be trusted — the server closes the
//     connection;
//   - a well-framed but malformed payload (bad version, truncated
//     fields) is answered with a typed kMalformed rejection and the
//     connection stays usable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request_queue.hpp"

namespace ssma::net {

inline constexpr std::uint8_t kWireVersion = 1;

enum class MsgType : std::uint8_t {
  kInferRequest = 1,
  kInferResponse = 2,

  // --- replication stream (leader <-> follower), same framing ---
  kReplHello = 10,       ///< follower -> leader: resume handshake
  kReplRecord = 11,      ///< leader -> follower: one journal record
  kReplCheckpoint = 12,  ///< leader -> follower: one checkpoint file
  kReplAck = 13,         ///< follower -> leader: durable high-water mark
  kReplReject = 14,      ///< leader -> follower: typed refusal + close
  kReplBase = 15,        ///< leader -> follower: compaction base to
                         ///< adopt before the first streamed record

  // --- operational admin plane (rollout control, compaction) ---
  kAdminRequest = 20,
  kAdminResponse = 21,
};

/// Response status byte: 0 = ok, 1 + RejectReason for typed sheds,
/// 255 = internal server error.
inline constexpr std::uint8_t kStatusOk = 0;
inline constexpr std::uint8_t kStatusInternalError = 255;
inline std::uint8_t status_of(serve::RejectReason r) {
  return static_cast<std::uint8_t>(1 + static_cast<std::uint8_t>(r));
}

struct RpcRequest {
  std::uint64_t correlation_id = 0;
  std::string tenant;     ///< admission identity; empty = anonymous
  std::string model_ref;  ///< "name", "name@latest", "name@N"
  /// Relative SLO deadline in milliseconds from server receipt;
  /// 0 = no deadline. Relative so client/server clock skew is moot.
  std::uint32_t deadline_ms = 0;
  std::uint8_t priority = 1;  ///< serve::Priority value (clamped)
  std::uint64_t rows = 0;
  std::vector<std::uint8_t> codes;  ///< rows x model cols, row-major

  /// Serializes prelude + fields into one framed message.
  std::string encode() const;
};

struct RpcResponse {
  std::uint64_t correlation_id = 0;
  std::uint8_t status = kStatusOk;
  std::string model;                ///< served model name (ok only)
  std::uint64_t model_version = 0;  ///< exact bank version (ok only)
  std::uint64_t rows = 0;
  std::vector<std::int16_t> outputs;  ///< rows x nout (ok only)
  std::string message;  ///< human-readable detail on non-ok

  std::string encode() const {
    return encode(outputs.data(), outputs.size());
  }
  /// The same bytes as encode() with `n` outputs read from `outputs`
  /// instead of the member, so a server frames a served result's
  /// buffer without copying it into a response first.
  std::string encode(const std::int16_t* outputs, std::size_t n) const;
};

/// One message of the replication stream. The prelude's correlation-id
/// slot carries `arg`; `arg2` and `bytes` follow in the body. Field
/// meaning by type:
///   kReplHello:      arg = follower durable journal seq,
///                    arg2 = follower newest checkpoint version,
///                    bytes = u64 follower durable journal byte offset
///                    (optional; lets the leader seek the resume point)
///   kReplRecord:     arg = journal seq, bytes = raw record payload
///                    (the framed blob's contents, leader-byte-exact)
///   kReplCheckpoint: arg = checkpoint version, bytes = whole file
///   kReplAck:        arg = follower durable journal seq
///   kReplReject:     arg = serve::RejectReason value, bytes = detail
///   kReplBase:       arg = compaction base seq, arg2 = base virtual
///                    byte offset (fresh follower adopts both)
struct ReplMessage {
  MsgType type = MsgType::kReplHello;
  std::uint64_t arg = 0;
  std::uint64_t arg2 = 0;
  std::string bytes;

  std::string encode() const;
};

/// One operation of the admin plane. Ops:
///   0 = rollout_status   (target = model name, "" = all)
///   1 = rollout_promote  (target = model name)
///   2 = rollout_rollback (target = model name)
///   3 = compact_journal  (target ignored)
struct AdminRequest {
  std::uint64_t correlation_id = 0;
  std::uint8_t op = 0;
  std::string target;

  std::string encode() const;
};

/// status: 0 = ok, nonzero = typed failure (body holds the detail).
/// `arg` is op-specific (compact_journal: records pruned).
struct AdminResponse {
  std::uint64_t correlation_id = 0;
  std::uint8_t status = 0;
  std::uint64_t arg = 0;
  std::string body;

  std::string encode() const;
};

/// Parse a frame payload (already CRC-validated). Returns false on any
/// malformation — wrong version, wrong type, truncated or oversized
/// fields — leaving *out in an unspecified state. *out owns its fields:
/// nothing in it points into `payload`.
bool parse_request(std::string_view payload, RpcRequest* out);
bool parse_response(std::string_view payload, RpcResponse* out);
/// Accepts any kRepl* type; rejects infer request/response preludes.
bool parse_repl(std::string_view payload, ReplMessage* out);
bool parse_admin_request(std::string_view payload, AdminRequest* out);
bool parse_admin_response(std::string_view payload, AdminResponse* out);

/// The message type byte of a framed payload (the prelude's second
/// byte), or 0 when the payload is too short — lets a server dispatch
/// on type before committing to a full per-type parse.
inline std::uint8_t peek_msg_type(std::string_view payload) {
  return payload.size() >= 2 ? static_cast<std::uint8_t>(payload[1]) : 0;
}

/// Incremental frame splitter for a nonblocking socket: feed() raw
/// bytes as they arrive, then drain complete frames with next(). The
/// length word is bounded by `max_frame_bytes` so a corrupt or hostile
/// peer cannot make the server buffer unbounded memory.
class FrameDecoder {
 public:
  enum class Result {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *payload holds one CRC-validated payload
    kBad,       ///< oversized length or CRC mismatch — close the stream
  };

  explicit FrameDecoder(std::size_t max_frame_bytes);

  void feed(const void* data, std::size_t n);
  /// On kFrame, *payload views the frame's payload inside the decoder's
  /// buffer. The view stays valid until the next feed() or next(),
  /// either of which may move or compact the buffer.
  Result next(std::string_view* payload);
  /// next(), with the payload copied out, for a caller that keeps it
  /// past the next feed() or next().
  Result next(std::string* payload) {
    std::string_view view;
    const Result r = next(&view);
    if (r == Result::kFrame) payload->assign(view);
    return r;
  }

  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  const std::size_t max_frame_bytes_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
};

}  // namespace ssma::net
