// TCP front door for the serving runtime: a single-threaded
// epoll event loop that speaks the framed RPC of wire_protocol.hpp,
// feeds requests through an AdmissionController into
// InferenceServer::submit, and writes responses back as the worker
// pool completes them.
//
// Threading model — one loop thread owns every connection:
//   - the epoll thread does all socket reads/writes, frame decoding,
//     admission and submission; per-connection state is never touched
//     off-thread, so it needs no locks;
//   - the requests admitted from one recv() form one submit group
//     (serve::SubmitGroup), which commits after the last complete frame
//     of that read — one journal flush and one queue push with one
//     wake-up — so a worker batches the read's requests together;
//   - worker threads (and submit's synchronous rejection paths) deliver
//     completions through InferenceRequest::on_done, which serializes
//     the response, pushes {conn id, bytes} into a mutex-guarded
//     outbox, and wakes the loop through an eventfd — the only
//     cross-thread hand-off in the layer.
//
// Backpressure is connection-scoped: when a connection has
// max_inflight_per_conn requests outstanding or its write buffer
// exceeds max_write_buffer_bytes, the loop stops polling it for reads
// (EPOLLIN off) until the pressure halves — TCP flow control then
// pushes back on the client. Admission-level overload (queue depth,
// tenant rate) is answered with typed rejections instead, so a shed
// client always gets an ack.
//
// A peer that half-closes (shutdown(SHUT_WR)) still gets a response to
// every request it sent: the loop stops reading it and closes it once
// nothing is in flight and its write buffer has flushed.
//
// stop() is graceful: accepting and reading stop immediately, but the
// loop keeps draining until every submitted request has delivered its
// response bytes to the socket — no lost acks — then closes.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire_protocol.hpp"
#include "serve/admission.hpp"
#include "serve/server.hpp"

namespace ssma::serve::rollout {
class RolloutManager;
}  // namespace ssma::serve::rollout

namespace ssma::net {

struct NetServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port() after start().
  std::uint16_t port = 0;
  int backlog = 128;
  /// Frame-length bound; a longer length word is a protocol error.
  std::size_t max_frame_bytes = 16u << 20;
  /// Read backpressure: stop polling a connection that has this many
  /// requests in flight...
  std::size_t max_inflight_per_conn = 256;
  /// ...or this many unflushed response bytes buffered.
  std::size_t max_write_buffer_bytes = 4u << 20;
  serve::AdmissionOptions admission;
};

/// Monotonic counters, snapshotted under the stats lock.
struct NetServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t requests_admitted = 0;
  /// Typed wire rejections sent, by reason (admission sheds plus
  /// submit-level refusals and malformed/unknown-model answers).
  std::array<std::uint64_t, serve::kNumRejectReasons> rejects{};
  /// Connections closed for unrecoverable framing (bad CRC/oversized).
  std::uint64_t protocol_errors = 0;
  /// Times read-side backpressure paused a connection.
  std::uint64_t read_pauses = 0;
};

class NetServer {
 public:
  /// `server` must outlive the NetServer. Construction binds and
  /// listens (throws CheckError on failure) and spawns the loop thread.
  NetServer(serve::InferenceServer& server, const NetServerOptions& opts);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (the ephemeral pick when options.port == 0).
  std::uint16_t port() const { return port_; }

  /// Graceful shutdown: stop accepting/reading, drain every in-flight
  /// response to its socket, close, join. Idempotent.
  void stop();

  NetServerStats stats() const;
  serve::AdmissionStats admission_stats() const {
    return admission_.stats();
  }

  /// Wires the operational admin plane (kAdminRequest frames) to a
  /// rollout manager. Borrowed; must outlive the NetServer or be
  /// detached with nullptr first. Without it, rollout admin ops answer
  /// a typed failure (compact_journal still works — it only needs the
  /// inference server).
  void set_rollout(serve::rollout::RolloutManager* rollout) {
    rollout_.store(rollout, std::memory_order_release);
  }

 private:
  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::string wbuf;       ///< unflushed response bytes
    std::size_t wpos = 0;   ///< flushed prefix of wbuf
    std::size_t inflight = 0;
    std::uint32_t armed = 0;  ///< epoll events registered for fd
    bool read_paused = false;
    bool read_eof = false;  ///< peer half-closed; close once answered
    explicit Conn(std::size_t max_frame) : decoder(max_frame) {}
  };

  void loop_main();
  void accept_ready();
  void conn_readable(std::uint64_t id, Conn& c);
  /// `payload` views c.decoder's buffer; nothing may keep it past the
  /// call. An admitted request joins `group`, the current read's.
  void handle_frame(std::uint64_t id, Conn& c, std::string_view payload,
                    serve::SubmitGroup& group);
  /// Admin-plane dispatch (rollout status/overrides, compaction). Runs
  /// synchronously on the loop thread — admin ops are rare and cheap
  /// relative to the inference path.
  void handle_admin(Conn& c, std::string_view payload);
  /// Serialize + enqueue a typed rejection on the loop thread.
  void send_reject(Conn& c, std::uint64_t corr,
                   serve::RejectReason reason, const std::string& msg);
  void enqueue_response(Conn& c, const std::string& bytes);
  bool flush_writes(std::uint64_t id, Conn& c);
  /// flush_writes, then either close a half-closed connection with
  /// nothing left in flight or unflushed, or re-arm its interest.
  void flush_and_rearm(std::uint64_t id, Conn& c);
  void drain_outbox();
  void update_interest(std::uint64_t id, Conn& c);
  void close_conn(std::uint64_t id, bool protocol_error);
  void wake_loop();
  std::size_t total_unflushed() const;

  serve::InferenceServer& server_;
  const NetServerOptions opts_;
  serve::AdmissionController admission_;
  std::atomic<serve::rollout::RolloutManager*> rollout_{nullptr};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::uint16_t port_ = 0;

  // Loop-thread-owned (no lock): live connections by id.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = 2;  ///< 0 = listener, 1 = eventfd

  // Cross-thread completion hand-off.
  struct Completion {
    std::uint64_t conn_id;
    std::string bytes;
  };
  std::mutex out_mu_;
  std::vector<Completion> outbox_;
  /// Requests submitted whose completion has not yet been moved out of
  /// the outbox. stop() drains until this is 0 and all wbufs flush.
  std::atomic<std::size_t> pending_{0};

  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  ///< stop() ran to completion (caller thread)
  std::thread loop_;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

/// Minimal blocking client for tests and benches. One socket; safe for
/// one sender thread plus one receiver thread concurrently (send and
/// recv take separate locks), which is how a pipelined load driver
/// runs.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Throws CheckError when the connection fails.
  void connect(const std::string& host, std::uint16_t port,
               std::size_t max_frame_bytes = 16u << 20);
  /// Like connect(), but retries up to `max_attempts` times with
  /// capped exponential backoff and deterministic seeded jitter —
  /// reconnect hardening for servers that restart (or followers that
  /// promote) underneath the client. Throws the last connect error
  /// once the attempts are exhausted.
  void connect_with_retry(const std::string& host, std::uint16_t port,
                          std::size_t max_attempts,
                          std::chrono::milliseconds backoff_base,
                          std::chrono::milliseconds backoff_cap,
                          std::uint64_t jitter_seed,
                          std::size_t max_frame_bytes = 16u << 20);
  /// Writes one encoded request; throws CheckError on a broken socket.
  /// A send that fails after a partial write poisons the connection
  /// (the peer's decoder is mid-frame, so retrying a fresh frame would
  /// desync the stream): the socket is shut down and every later
  /// send/recv throws until close() + reconnect.
  void send(const RpcRequest& req);
  /// Writes one admin-plane operation; same failure semantics as send().
  void send_admin(const AdminRequest& req);
  /// Blocks for the next response frame (responses may arrive out of
  /// submission order — match by correlation_id). Returns false on a
  /// clean peer close at a frame boundary; throws CheckError on a
  /// corrupt frame or mid-frame disconnect.
  bool recv_response(RpcResponse* out);
  /// Blocks for the next admin response frame.
  bool recv_admin(AdminResponse* out);
  void close();

  /// True when a partial-write failure poisoned the stream (see
  /// send()); the only way forward is close() + reconnect.
  bool broken() const { return broken_.load(std::memory_order_acquire); }

 private:
  void send_bytes(const std::string& bytes);
  /// Reads socket bytes into the decoder until one frame payload is
  /// complete; false on a clean close at a frame boundary. Call with
  /// recv_mu_ held, and parse the view before releasing it.
  bool recv_payload(std::string_view* payload);

  int fd_ = -1;
  std::mutex send_mu_;
  std::mutex recv_mu_;
  std::unique_ptr<FrameDecoder> decoder_;
  std::atomic<bool> broken_{false};
};

}  // namespace ssma::net
