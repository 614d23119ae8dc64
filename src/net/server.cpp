#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "net/socket.hpp"
#include "serve/rollout/rollout.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::net {

namespace {

constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kEventId = 1;

// Practical per-request row bound: far above any sane batch request,
// far below anything that could wedge a worker. Shape errors are
// kMalformed, not crashes.
constexpr std::uint64_t kMaxRequestRows = 1u << 20;

}  // namespace

NetServer::NetServer(serve::InferenceServer& server,
                     const NetServerOptions& opts)
    : server_(server), opts_(opts), admission_(opts.admission) {
  listen_fd_ = listen_tcp(opts.host, opts.port, opts.backlog,
                          /*nonblocking=*/true, &port_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  SSMA_CHECK_MSG(epoll_fd_ >= 0,
                 "epoll_create1 failed: " << std::strerror(errno));
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  SSMA_CHECK_MSG(event_fd_ >= 0,
                 "eventfd failed: " << std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  SSMA_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.u64 = kEventId;
  SSMA_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) == 0);

  loop_ = std::thread([this] { loop_main(); });
}

NetServer::~NetServer() { stop(); }

void NetServer::wake_loop() {
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore the result.
  (void)!::write(event_fd_, &one, sizeof(one));
}

void NetServer::stop() {
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  wake_loop();
  if (loop_.joinable()) loop_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = event_fd_ = epoll_fd_ = -1;
  stopped_ = true;
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t NetServer::total_unflushed() const {
  std::size_t n = 0;
  for (const auto& kv : conns_) n += kv.second->wbuf.size() - kv.second->wpos;
  return n;
}

void NetServer::loop_main() {
  SSMA_TRACE_SET_THREAD("net-loop");
  epoll_event events[64];
  bool draining_logged = false;
  (void)draining_logged;
  for (;;) {
    // 100 ms safety tick: correctness only needs the eventfd, but a
    // bounded wait turns any missed wake into a brief stall instead of
    // a hang.
    const int n = ::epoll_wait(epoll_fd_, events, 64, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone — only happens at teardown
    }
    const bool stopping = stopping_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        if (!stopping) accept_ready();
        continue;
      }
      if (id == kEventId) {
        std::uint64_t drained = 0;
        (void)!::read(event_fd_, &drained, sizeof(drained));
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(id, /*protocol_error=*/false);
        continue;
      }
      if ((events[i].events & EPOLLIN) && !stopping)
        conn_readable(id, c);
      if (conns_.count(id) && (events[i].events & EPOLLOUT))
        flush_and_rearm(id, *conns_.at(id));
    }

    drain_outbox();

    if (stopping) {
      // Reads are off; exit once every submitted request has pushed its
      // response through the outbox and every buffered byte flushed.
      for (auto& kv : conns_) update_interest(kv.first, *kv.second);
      std::size_t queued;
      {
        std::lock_guard<std::mutex> lock(out_mu_);
        queued = outbox_.size();
      }
      if (pending_.load(std::memory_order_acquire) == 0 && queued == 0 &&
          total_unflushed() == 0)
        break;
    }
  }
  // Loop exit: close every connection (peers see EOF after the final
  // response bytes, which flushed before the exit condition held).
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& kv : conns_) ids.push_back(kv.first);
  for (std::uint64_t id : ids) close_conn(id, /*protocol_error=*/false);
}

void NetServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error — epoll refires
    set_nodelay(fd);
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(opts_.max_frame_bytes);
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    conns_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.connections_accepted++;
  }
}

void NetServer::conn_readable(std::uint64_t id, Conn& c) {
  SSMA_TRACE_SPAN(kNetRead);
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      // A half-close ends the requests, not the responses: stop
      // reading, and close once every request in flight is answered.
      c.read_eof = true;
      flush_and_rearm(id, c);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(id, /*protocol_error=*/false);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.bytes_read += static_cast<std::uint64_t>(n);
    }
    c.decoder.feed(buf, static_cast<std::size_t>(n));
    std::string_view payload;
    for (;;) {
      const FrameDecoder::Result r = c.decoder.next(&payload);
      if (r == FrameDecoder::Result::kNeedMore) break;
      if (r == FrameDecoder::Result::kBad) {
        // The byte stream is unrecoverable (framing lost); close.
        close_conn(id, /*protocol_error=*/true);
        return;
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.frames_received++;
      }
      handle_frame(id, c, payload);
      if (!conns_.count(id)) return;  // handle_frame closed it
    }
    // Backpressure check between socket reads: stop pulling more bytes
    // once this connection is saturated.
    update_interest(id, c);
    if (c.read_paused) break;
  }
}

void NetServer::send_reject(Conn& c, std::uint64_t corr,
                            serve::RejectReason reason,
                            const std::string& msg) {
  RpcResponse resp;
  resp.correlation_id = corr;
  resp.status = status_of(reason);
  resp.message = msg;
  enqueue_response(c, resp.encode());
  server_.record_reject(reason);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.rejects[static_cast<std::size_t>(reason)]++;
}

void NetServer::handle_admin(Conn& c, std::string_view payload) {
  AdminRequest req;
  AdminResponse resp;
  if (!parse_admin_request(payload, &req)) {
    resp.status = 1;
    resp.body = "unparseable admin payload";
    enqueue_response(c, resp.encode());
    return;
  }
  resp.correlation_id = req.correlation_id;
  serve::rollout::RolloutManager* rollout =
      rollout_.load(std::memory_order_acquire);
  try {
    switch (req.op) {
      case 0: {  // rollout_status
        SSMA_CHECK_MSG(rollout, "no rollout manager attached");
        std::string body;
        if (req.target.empty()) {
          for (const serve::rollout::RolloutReport& r : rollout->reports())
            body += r.to_text() + "\n";
        } else {
          body = rollout->report(req.target).to_text();
        }
        resp.body = std::move(body);
        break;
      }
      case 1:  // rollout_promote
        SSMA_CHECK_MSG(rollout, "no rollout manager attached");
        rollout->force_promote(req.target);
        resp.body = rollout->report(req.target).to_text();
        break;
      case 2:  // rollout_rollback
        SSMA_CHECK_MSG(rollout, "no rollout manager attached");
        rollout->force_rollback(req.target);
        resp.body = rollout->report(req.target).to_text();
        break;
      case 3:  // compact_journal
        resp.arg = server_.compact_journal();
        break;
      default:
        resp.status = 1;
        resp.body = "unknown admin op";
        break;
    }
  } catch (const CheckError& e) {
    resp.status = 1;
    resp.arg = 0;
    resp.body = e.what();
  }
  enqueue_response(c, resp.encode());
}

void NetServer::handle_frame(std::uint64_t id, Conn& c,
                             std::string_view payload) {
  // Admin frames share the front door but never touch admission or the
  // inference queue; dispatch on the prelude type byte before
  // committing to the request parse.
  if (peek_msg_type(payload) ==
      static_cast<std::uint8_t>(MsgType::kAdminRequest)) {
    handle_admin(c, payload);
    return;
  }
  RpcRequest req;
  if (!parse_request(payload, &req)) {
    send_reject(c, req.correlation_id, serve::RejectReason::kMalformed,
                "unparseable request payload");
    return;
  }
  if (req.rows == 0 || req.rows > kMaxRequestRows) {
    send_reject(c, req.correlation_id, serve::RejectReason::kMalformed,
                "rows out of range");
    return;
  }

  engine::ModelRef model;
  try {
    model = server_.registry().resolve(req.model_ref);
  } catch (const CheckError& e) {
    send_reject(c, req.correlation_id, serve::RejectReason::kUnknownModel,
                e.what());
    return;
  }
  if (req.codes.size() !=
      static_cast<std::size_t>(req.rows) * model->cols()) {
    send_reject(c, req.correlation_id, serve::RejectReason::kMalformed,
                "payload size is not rows x model cols");
    return;
  }

  const serve::Clock::time_point now = serve::Clock::now();
  const serve::Clock::time_point deadline =
      req.deadline_ms == 0
          ? serve::Clock::time_point::max()
          : now + std::chrono::milliseconds(req.deadline_ms);
  const serve::AdmissionController::Outcome adm = admission_.admit(
      req.tenant, static_cast<std::size_t>(req.rows), now, deadline,
      server_.queue_depth(), server_.queue_capacity());
  if (!adm.admitted) {
    SSMA_TRACE_SPAN(kAdmitReject);
    send_reject(c, req.correlation_id, adm.reason,
                std::string("admission: ") +
                    serve::reject_reason_name(adm.reason));
    return;
  }

  // Effective class: the tenant's configured class is a ceiling; the
  // wire priority byte may only make the request *less* urgent.
  const auto wire_pri = static_cast<serve::Priority>(
      std::min<std::uint8_t>(req.priority,
                             static_cast<std::uint8_t>(
                                 serve::Priority::kLow)));
  serve::SubmitExtras extras;
  extras.priority = std::max(adm.priority, wire_pri);
  extras.deadline = deadline;
  extras.tenant = req.tenant;
  extras.nonblocking = true;  // never park the event loop in submit
  const std::uint64_t corr = req.correlation_id;
  pending_.fetch_add(1, std::memory_order_acq_rel);
  extras.on_done = [this, id, corr](const serve::InferenceResult* res,
                                    const std::exception_ptr& err) {
    SSMA_TRACE_SPAN(kNetWrite);
    RpcResponse resp;
    resp.correlation_id = corr;
    // The frame is encoded straight from the result's outputs.
    const std::int16_t* outputs = nullptr;
    std::size_t n_outputs = 0;
    if (res != nullptr) {
      resp.status = kStatusOk;
      resp.model = res->model;
      resp.model_version = res->model_version;
      resp.rows = res->rows;
      outputs = res->outputs.data();
      n_outputs = res->outputs.size();
    } else {
      resp.status = kStatusInternalError;
      try {
        if (err) std::rethrow_exception(err);
      } catch (const serve::RejectedError& e) {
        resp.status = status_of(e.reason());
        resp.message = e.what();
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.rejects[static_cast<std::size_t>(e.reason())]++;
      } catch (const std::exception& e) {
        resp.message = e.what();
      }
    }
    Completion done{id, resp.encode(outputs, n_outputs)};
    bool first;
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      first = outbox_.empty();
      outbox_.push_back(std::move(done));
    }
    // Order matters for graceful stop: the completion is visible in the
    // outbox before pending_ drops, so "pending == 0 and outbox empty"
    // proves every response reached a write buffer.
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    // One wake per burst: only the push that finds the outbox empty
    // wakes the loop. A later push either lands before the drain that
    // wake brings on, or finds the outbox empty again and wakes it.
    if (first) wake_loop();
  };

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.requests_admitted++;
  }
  c.inflight++;
  // The future is intentionally dropped: the on_done hook is the
  // delivery path, and it fires on every outcome (fulfill, shed,
  // shutdown, crash-fail) — no response can be lost.
  (void)server_.submit(std::move(model), std::move(req.codes),
                       static_cast<std::size_t>(req.rows),
                       std::move(extras));
}

void NetServer::enqueue_response(Conn& c, const std::string& bytes) {
  c.wbuf.append(bytes);
}

bool NetServer::flush_writes(std::uint64_t id, Conn& c) {
  SSMA_TRACE_SPAN(kNetWrite);
  while (c.wpos < c.wbuf.size()) {
    const ssize_t n =
        ::send(c.fd, c.wbuf.data() + c.wpos, c.wbuf.size() - c.wpos,
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(id, /*protocol_error=*/false);
      return false;
    }
    c.wpos += static_cast<std::size_t>(n);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.bytes_written += static_cast<std::uint64_t>(n);
  }
  if (c.wpos == c.wbuf.size()) {
    c.wbuf.clear();
    c.wpos = 0;
  } else if (c.wpos > 64 * 1024) {
    c.wbuf.erase(0, c.wpos);
    c.wpos = 0;
  }
  return true;
}

void NetServer::drain_outbox() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    done.swap(outbox_);
  }
  std::vector<std::uint64_t> touched;
  touched.reserve(done.size());
  for (Completion& comp : done) {
    const auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;  // connection died mid-flight
    Conn& c = *it->second;
    if (c.inflight > 0) c.inflight--;
    // A connection with nothing unflushed takes the encoded response as
    // its write buffer instead of a copy of it.
    if (c.wbuf.empty())
      c.wbuf = std::move(comp.bytes);
    else
      enqueue_response(c, comp.bytes);
    touched.push_back(comp.conn_id);
  }
  // Flush and re-arm once per touched connection, not per completion.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (std::uint64_t id : touched) flush_and_rearm(id, *conns_.at(id));
}

void NetServer::flush_and_rearm(std::uint64_t id, Conn& c) {
  if (!flush_writes(id, c)) return;  // a send error closed it
  if (c.read_eof && c.inflight == 0 && c.wpos == c.wbuf.size()) {
    close_conn(id, /*protocol_error=*/false);
    return;
  }
  update_interest(id, c);
}

void NetServer::update_interest(std::uint64_t id, Conn& c) {
  const std::size_t unflushed = c.wbuf.size() - c.wpos;
  // Hysteresis: pause at the caps, resume at half — a connection
  // hovering at the boundary does not thrash epoll_ctl.
  bool paused = c.read_paused;
  if (!paused && (c.inflight >= opts_.max_inflight_per_conn ||
                  unflushed >= opts_.max_write_buffer_bytes)) {
    paused = true;
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.read_pauses++;
  } else if (paused && c.inflight <= opts_.max_inflight_per_conn / 2 &&
             unflushed <= opts_.max_write_buffer_bytes / 2) {
    paused = false;
  }
  c.read_paused = paused;

  epoll_event ev{};
  ev.data.u64 = id;
  // EPOLLRDHUP is level-triggered and only a read consumes it, so it is
  // armed only with EPOLLIN: a paused, half-closed peer must not wake
  // the loop on every wait.
  if (!paused && !c.read_eof && !stopping_.load(std::memory_order_acquire))
    ev.events |= EPOLLIN | EPOLLRDHUP;
  if (unflushed > 0) ev.events |= EPOLLOUT;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void NetServer::close_conn(std::uint64_t id, bool protocol_error) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  conns_.erase(it);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.connections_closed++;
  if (protocol_error) stats_.protocol_errors++;
}

// ---------------------------------------------------------------- client

NetClient::~NetClient() { close(); }

void NetClient::connect(const std::string& host, std::uint16_t port,
                        std::size_t max_frame_bytes) {
  SSMA_CHECK_MSG(fd_ < 0, "NetClient already connected");
  fd_ = connect_tcp(host, port);
  decoder_ = std::make_unique<FrameDecoder>(max_frame_bytes);
}

void NetClient::connect_with_retry(const std::string& host,
                                   std::uint16_t port,
                                   std::size_t max_attempts,
                                   std::chrono::milliseconds backoff_base,
                                   std::chrono::milliseconds backoff_cap,
                                   std::uint64_t jitter_seed,
                                   std::size_t max_frame_bytes) {
  SSMA_CHECK_MSG(max_attempts >= 1, "need at least one connect attempt");
  Rng rng(jitter_seed);
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      connect(host, port, max_frame_bytes);
      return;
    } catch (const CheckError&) {
      if (attempt + 1 >= max_attempts) throw;
    }
    std::this_thread::sleep_for(
        backoff_delay(backoff_base, backoff_cap, attempt, rng));
  }
}

void NetClient::send(const RpcRequest& req) { send_bytes(req.encode()); }

void NetClient::send_admin(const AdminRequest& req) {
  send_bytes(req.encode());
}

void NetClient::send_bytes(const std::string& bytes) {
  std::lock_guard<std::mutex> lock(send_mu_);
  SSMA_CHECK_MSG(fd_ >= 0, "NetClient not connected");
  SSMA_CHECK_MSG(!broken_.load(std::memory_order_acquire),
                 "NetClient stream poisoned by an earlier partial "
                 "write; close() and reconnect");
  std::size_t off = 0;
  if (write_all(fd_, bytes, &off)) return;
  const int err = errno;
  if (off > 0) {
    // Partial frame already on the wire: the server's decoder is
    // mid-frame, so any retried send would interleave a fresh frame
    // into the torn one and desync the whole stream. Poison the
    // connection (shutdown, not close — a concurrent recv_response may
    // still hold the fd) so every later op fails loudly until the
    // caller reconnects.
    broken_.store(true, std::memory_order_release);
    ::shutdown(fd_, SHUT_RDWR);
  }
  SSMA_CHECK_MSG(false, "send failed"
                            << (off > 0 ? " mid-frame (connection "
                                          "poisoned; reconnect)"
                                        : "")
                            << ": " << std::strerror(err));
}

bool NetClient::recv_payload(std::string_view* payload) {
  SSMA_CHECK_MSG(fd_ >= 0, "NetClient not connected");
  SSMA_CHECK_MSG(!broken_.load(std::memory_order_acquire),
                 "NetClient stream poisoned by an earlier partial "
                 "write; close() and reconnect");
  const FrameRead r = read_frame(fd_, *decoder_, payload);
  SSMA_CHECK_MSG(r != FrameRead::kBad,
                 "corrupt response frame (CRC/length)");
  SSMA_CHECK_MSG(r != FrameRead::kError,
                 "recv failed: " << std::strerror(errno));
  if (r == FrameRead::kFrame) return true;
  SSMA_CHECK_MSG(decoder_->buffered_bytes() == 0,
                 "server closed mid-frame");
  return false;  // clean close at a frame boundary
}

bool NetClient::recv_response(RpcResponse* out) {
  // The payload views the decoder's buffer: parse it under the lock.
  std::lock_guard<std::mutex> lock(recv_mu_);
  std::string_view payload;
  if (!recv_payload(&payload)) return false;
  SSMA_CHECK_MSG(parse_response(payload, out),
                 "malformed response payload");
  return true;
}

bool NetClient::recv_admin(AdminResponse* out) {
  std::lock_guard<std::mutex> lock(recv_mu_);
  std::string_view payload;
  if (!recv_payload(&payload)) return false;
  SSMA_CHECK_MSG(parse_admin_response(payload, out),
                 "malformed admin response payload");
  return true;
}

void NetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.reset();
  broken_.store(false, std::memory_order_release);
}

}  // namespace ssma::net
