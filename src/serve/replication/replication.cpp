#include "serve/replication/replication.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <iterator>
#include <string_view>
#include <utility>

#include "maddness/framing.hpp"
#include "net/socket.hpp"
#include "net/wire_protocol.hpp"
#include "serve/request_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::replication {

using net::FrameDecoder;
using net::FrameRead;
using net::MsgType;
using net::ReplMessage;
using net::write_all;

const char* to_string(AckMode mode) {
  switch (mode) {
    case AckMode::kAsync:
      return "async";
    case AckMode::kWindow:
      return "window";
    case AckMode::kSync:
      return "sync";
  }
  return "?";
}

namespace {

/// Tails a journal file by VIRTUAL byte offset (the stable addressing
/// that survives compaction): translates to a physical seek through the
/// journal's CompactionInfo and reopens the stream whenever compaction
/// rewrites the file (generation bump).
class JournalTailer {
 public:
  /// Bytes of one read, unless its first frame alone is larger.
  static constexpr std::uint64_t kMaxRead = 4u << 20;

  explicit JournalTailer(recovery::RequestJournal& journal)
      : journal_(journal), info_(journal.compaction_info()) {
    is_.open(journal_.path(), std::ios::binary);
  }

  const recovery::RequestJournal::CompactionInfo& info() const {
    return info_;
  }

  /// Reads the whole frames that start at virtual offset `vpos` and end
  /// by `vend` into *out, with one read of at most kMaxRead bytes —
  /// more only when the first frame alone is larger. False when those
  /// bytes are not (yet) visible, or `vpos` is behind the compaction
  /// horizon.
  bool read_frames(std::uint64_t vpos, std::uint64_t vend,
                   std::string* out) {
    const auto now = journal_.compaction_info();
    if (now.generation != info_.generation) {
      info_ = now;
      is_.close();
      is_.open(journal_.path(), std::ios::binary);
    }
    if (vpos < info_.base_bytes || vend <= vpos) return false;
    if (!read(vpos, std::min(vend - vpos, kMaxRead), out)) return false;
    // Cut the read back to its last whole frame.
    constexpr std::size_t kHdr = maddness::kFrameHeaderBytes;
    std::size_t whole = 0;
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    while (out->size() - whole >= kHdr) {
      maddness::read_frame_header(out->data() + whole, &len, &crc);
      if (len > out->size() - whole - kHdr) break;
      whole += kHdr + static_cast<std::size_t>(len);
    }
    if (whole > 0) {
      out->resize(whole);
      return true;
    }
    if (out->size() < kHdr || len > vend - vpos - kHdr) return false;
    return read(vpos, kHdr + len, out);
  }

 private:
  bool read(std::uint64_t vpos, std::uint64_t n, std::string* out) {
    out->resize(static_cast<std::size_t>(n));
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(vpos - info_.base_bytes +
                                          info_.header_bytes));
    is_.read(out->data(), static_cast<std::streamsize>(n));
    return is_.gcount() == static_cast<std::streamsize>(n);
  }

  recovery::RequestJournal& journal_;
  recovery::RequestJournal::CompactionInfo info_;
  std::ifstream is_;
};

}  // namespace

ReplicationLog::ReplicationLog(recovery::RequestJournal& journal,
                               recovery::CheckpointManager* checkpoints,
                               const ReplicationOptions& opts)
    : journal_(journal), checkpoints_(checkpoints), opts_(opts) {
  leader_seq_ = journal_.durable_seq();
  leader_bytes_ = journal_.durable_bytes();
  // Pre-existing records are untracked for byte/age lag (no append
  // timestamps exist for them); the record-count lag still covers them.
  replicated_bytes_ = leader_bytes_;

  listen_fd_ = net::listen_tcp(opts_.host, opts_.port, /*backlog=*/8,
                              /*nonblocking=*/false, &port_);

  journal_.set_commit_hook([this](std::uint64_t seq, std::uint64_t bytes) {
    on_commit(seq, bytes);
  });
  accept_thread_ = std::thread([this] { accept_main(); });
}

ReplicationLog::~ReplicationLog() { stop(); }

void ReplicationLog::on_commit(std::uint64_t seq, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  leader_seq_ = seq;
  leader_bytes_ = bytes;
  // pending_ only feeds the lag gauges; never let it grow one entry
  // per request for the process lifetime when nothing is draining it.
  bool any_ready = false;
  for (const auto& f : followers_)
    if (f->ready) {
      any_ready = true;
      break;
    }
  if (!any_ready && pending_.size() > 1) {
    // No handshaken follower to advance the watermark: keep only the
    // oldest entry (the lag_ns anchor) until one connects.
    pending_.erase(pending_.begin() + 1, pending_.end());
  } else if (pending_.size() >= kMaxPending) {
    // Follower connected but deeply lagged: drop every other interior
    // entry. The byte/ns gauges coarsen; memory stays bounded.
    std::deque<Pending> thinned;
    for (std::size_t i = 0; i < pending_.size(); ++i)
      if (i == 0 || i + 1 == pending_.size() || i % 2 == 0)
        thinned.push_back(pending_[i]);
    pending_.swap(thinned);
  }
  pending_.push_back({seq, bytes, std::chrono::steady_clock::now()});
  records_cv_.notify_all();
}

void ReplicationLog::accept_main() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    net::set_nodelay(fd);
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    followers_.emplace_back(std::make_unique<Follower>());
    Follower* f = followers_.back().get();
    f->fd = fd;
    f->session = std::thread([this, f] { session_main(f); });
  }
}

std::uint64_t ReplicationLog::newest_valid_checkpoint() {
  if (!checkpoints_) return 0;
  const std::uint64_t newest = checkpoints_->newest_version();
  std::uint64_t examined;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (newest <= ckpt_examined_) return ckpt_newest_valid_;
    examined = ckpt_examined_;
  }
  // Validate, newest first, only the versions not examined yet; a torn
  // one (e.g. injected kTornCheckpoint) is skipped once, not per wake.
  std::uint64_t found = 0;
  const auto versions = checkpoints_->versions();
  for (auto it = versions.rbegin();
       it != versions.rend() && *it > examined && found == 0; ++it) {
    if (*it > newest) continue;  // written since newest was read
    try {
      (void)recovery::CheckpointManager::load_file(
          checkpoints_->path_of(*it));
      found = *it;
    } catch (const std::exception&) {
      // Torn or corrupt: the version before it may still validate.
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ckpt_examined_ = std::max(ckpt_examined_, newest);
  ckpt_newest_valid_ = std::max(ckpt_newest_valid_, found);
  return ckpt_newest_valid_;
}

recovery::FaultKind ReplicationLog::send_fault(std::string* out,
                                               std::size_t start) {
  if (!opts_.fault) return recovery::FaultKind::kNone;
  const auto action = opts_.fault->poll(recovery::FaultSite::kReplSend);
  switch (action.kind) {
    case recovery::FaultKind::kDelay:
      std::this_thread::sleep_for(action.delay);
      break;
    case recovery::FaultKind::kDropMessage: {
      // Silently not delivered: the stream position advances, and a
      // dropped record heals either when the follower detects the
      // sequence gap on the next record and reconnects with its real
      // high-water mark, or — if traffic stops — when the idle resend
      // rewinds to the follower's ack mark and re-offers it.
      out->resize(start);
      std::lock_guard<std::mutex> lk(mu_);
      ++dropped_sends_;
      break;
    }
    case recovery::FaultKind::kTornMessage: {
      // Half a frame, then the caller cuts: the follower's decoder sees
      // a torn stream and reconnects.
      out->resize(start + (out->size() - start) / 2);
      std::lock_guard<std::mutex> lk(mu_);
      ++torn_sends_;
      break;
    }
    case recovery::FaultKind::kDupMessage: {
      const std::string frame = out->substr(start);
      *out += frame;
      std::lock_guard<std::mutex> lk(mu_);
      ++dup_sends_;
      break;
    }
    default:
      break;
  }
  return action.kind;
}

bool ReplicationLog::send(Follower* f, const std::string& bytes) {
  SSMA_TRACE_SPAN(kReplSend);
  if (!write_all(f->fd, bytes)) return false;
  std::lock_guard<std::mutex> lk(mu_);
  bytes_sent_ += bytes.size();
  return true;
}

bool ReplicationLog::send_message(Follower* f, std::string frame) {
  const recovery::FaultKind kind = send_fault(&frame, 0);
  if (kind == recovery::FaultKind::kDropMessage ||
      kind == recovery::FaultKind::kTornMessage) {
    (void)write_all(f->fd, frame);
    ::shutdown(f->fd, SHUT_RDWR);
    return false;
  }
  return send(f, frame);
}

bool ReplicationLog::ship_checkpoints(Follower* f) {
  const std::uint64_t v = newest_valid_checkpoint();
  if (v == 0 || v <= f->shipped_ckpt) return true;
  std::ifstream is(checkpoints_->path_of(v), std::ios::binary);
  if (!is) return true;  // raced a cleanup; next round retries
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  ReplMessage m;
  m.type = MsgType::kReplCheckpoint;
  m.arg = v;
  m.bytes = std::move(bytes);
  if (!send_message(f, m.encode())) return false;
  f->shipped_ckpt = v;
  std::lock_guard<std::mutex> lk(mu_);
  ++checkpoints_shipped_;
  return true;
}

void ReplicationLog::session_main(Follower* f) {
  FrameDecoder dec(opts_.max_frame_bytes);
  std::string_view hello_frame;
  ReplMessage hello;
  bool ok =
      net::read_frame(f->fd, dec, &hello_frame) == FrameRead::kFrame &&
      net::parse_repl(hello_frame, &hello) &&
      hello.type == MsgType::kReplHello;
  if (ok && hello.arg > journal_.durable_seq()) {
    // The follower claims records this leader never wrote: it has
    // diverged (e.g. promoted, or paired with a different leader) and
    // must not be silently rewound.
    ReplMessage rej;
    rej.type = MsgType::kReplReject;
    rej.arg = static_cast<std::uint64_t>(RejectReason::kStaleFollower);
    rej.bytes = "follower seq " + std::to_string(hello.arg) +
                " ahead of leader seq " +
                std::to_string(journal_.durable_seq());
    (void)write_all(f->fd, rej.encode());
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_followers_;
    ok = false;
  }
  JournalTailer tail(journal_);
  if (ok && hello.arg > 0 && hello.arg < tail.info().base_seq) {
    // The follower's resume point was pruned by compaction while it was
    // disconnected (compaction only waits for CONNECTED followers'
    // acks). Its prefix can no longer be served byte-exact: refuse
    // loudly rather than rewind it.
    ReplMessage rej;
    rej.type = MsgType::kReplReject;
    rej.arg = static_cast<std::uint64_t>(RejectReason::kStaleFollower);
    rej.bytes = "follower seq " + std::to_string(hello.arg) +
                " behind compaction horizon " +
                std::to_string(tail.info().base_seq);
    (void)write_all(f->fd, rej.encode());
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_followers_;
    ok = false;
  }

  std::uint64_t next_seq = hello.arg + 1;
  std::uint64_t pos = 8;  // VIRTUAL offset past the journal magic
  std::string payload;    // journal frames read from the tail
  if (ok) {
    f->shipped_ckpt = hello.arg2;
    if (!ship_checkpoints(f)) ok = false;
  }
  if (ok && hello.arg == 0 && tail.info().base_seq > 0) {
    // Fresh follower joining a compacted leader: its journal cannot be
    // a byte-prefix of ours (the prefix is gone), so ship the
    // compaction base first. The follower adopts it (adopt_base) and
    // its file becomes byte-identical to our compacted header; records
    // then stream from the first surviving one.
    ReplMessage base;
    base.type = MsgType::kReplBase;
    base.arg = tail.info().base_seq;
    base.arg2 = tail.info().base_bytes;
    if (!send_message(f, base.encode())) {
      ok = false;
    } else {
      next_seq = tail.info().base_seq + 1;
      pos = tail.info().base_bytes;
    }
  } else if (ok) {
    // Resume point: the follower's journal is a byte-prefix of ours,
    // so the durable VIRTUAL byte offset it reports in the hello IS
    // the offset of its next frame — seek there directly instead of
    // re-scanning hello.arg frames (O(journal) per reconnect adds up
    // to O(journal^2) under reconnect churn). An empty/implausible
    // offset falls back to the sequential skip.
    wire::Reader hb(hello.bytes);
    const std::uint64_t sent_bytes = hb.u64();
    const std::uint64_t follower_bytes = hb.done() ? sent_bytes : 0;
    if (follower_bytes >= tail.info().base_bytes &&
        follower_bytes <= journal_.durable_bytes() &&
        (hello.arg > 0 || follower_bytes == 8)) {
      pos = follower_bytes;
    } else {
      // Skip the frames the follower already has, starting from the
      // first surviving record.
      pos = tail.info().base_bytes;
      for (std::uint64_t i = tail.info().base_seq; ok && i < hello.arg;) {
        ok = tail.read_frames(pos, journal_.durable_bytes(), &payload);
        wire::Reader frames(payload);
        for (; ok && i < hello.arg && !frames.done(); ++i) {
          pos += maddness::kFrameHeaderBytes +
                 maddness::read_frame(frames).size();
          ok = frames.ok();
        }
      }
    }
  }
  if (ok) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      f->ready = true;
      f->acked_seq = hello.arg;
      replicated_seq_ = std::max(replicated_seq_, hello.arg);
      acks_cv_.notify_all();
    }
    f->reader = std::thread([this, f] { reader_main(f); });

    // Sent-but-unacked frames (seq -> file offset of the frame). A
    // dropped send is normally healed by the follower spotting the
    // sequence gap on the NEXT record; when traffic stops there is no
    // next record, so after `resend_after` of quiet the sender rewinds
    // to the follower's ack mark and re-offers (the follower re-acks
    // duplicates idempotently).
    std::deque<std::pair<std::uint64_t, std::uint64_t>> unacked;
    constexpr std::size_t kMaxUnackedTracked = 65536;
    auto last_activity = std::chrono::steady_clock::now();
    std::string out;  // the kReplRecord frames of one send

    bool broken = false;
    while (!broken) {
      std::uint64_t target;
      std::uint64_t target_bytes;
      std::uint64_t acked;
      {
        std::unique_lock<std::mutex> lk(mu_);
        // The timeout doubles as the checkpoint-discovery poll (model
        // registrations checkpoint without journaling a record) and as
        // the idle-resend clock (acks do not wake the sender).
        records_cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
          return stopping_ || leader_seq_ >= next_seq;
        });
        if (stopping_) break;
        target = leader_seq_;
        target_bytes = leader_bytes_;
        acked = f->acked_seq;
      }
      while (!unacked.empty() && unacked.front().first <= acked) {
        unacked.pop_front();
        last_activity = std::chrono::steady_clock::now();
      }
      // Before this wake's records: a record never reaches the follower
      // ahead of the checkpoint holding the model it pins.
      if (!ship_checkpoints(f)) break;
      if (next_seq > target && !unacked.empty() &&
          std::chrono::steady_clock::now() - last_activity >
              opts_.resend_after) {
        if (unacked.front().first != acked + 1) {
          // The rewind point aged out of the tracked window (cap hit):
          // resync through the reconnect handshake instead.
          break;
        }
        next_seq = unacked.front().first;
        pos = unacked.front().second;
        unacked.clear();
        last_activity = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        ++idle_resends_;
      }
      while (next_seq <= target && !broken) {
        // The records are durable (leader_bytes_ covers them), so their
        // frames are fully on disk; retry briefly against fs visibility
        // jitter.
        bool have = false;
        for (int attempt = 0; attempt < 100 && !have; ++attempt) {
          have = tail.read_frames(pos, target_bytes, &payload);
          if (!have)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!have) {
          broken = true;
          break;
        }
        // One kReplRecord frame per journal frame, each passed through
        // the armed kReplSend faults, then one write for all of them.
        out.clear();
        std::uint64_t records = 0;
        std::size_t torn_at = std::string::npos;
        wire::Reader frames(payload);
        while (!frames.done()) {
          const std::uint64_t frame_pos = pos;
          ReplMessage rec;
          rec.type = MsgType::kReplRecord;
          rec.arg = next_seq;
          rec.bytes = maddness::read_frame(frames);
          if (!frames.ok()) break;  // corrupt journal bytes: resync
          const std::size_t start = out.size();
          out += rec.encode();
          if (send_fault(&out, start) == recovery::FaultKind::kTornMessage) {
            torn_at = start;
            break;
          }
          if (unacked.size() == kMaxUnackedTracked) unacked.pop_front();
          unacked.emplace_back(next_seq, frame_pos);
          pos += maddness::kFrameHeaderBytes + rec.bytes.size();
          ++next_seq;
          ++records;
        }
        {
          std::lock_guard<std::mutex> lk(mu_);
          records_sent_ += records;
        }
        if (records > 0) last_activity = std::chrono::steady_clock::now();
        if (torn_at != std::string::npos) {
          (void)write_all(f->fd, out);
          ::shutdown(f->fd, SHUT_RDWR);
          std::lock_guard<std::mutex> lk(mu_);
          bytes_sent_ += torn_at;
          broken = true;
        } else if (!frames.done() || !send(f, out)) {
          broken = true;
        }
      }
    }
  }

  ::shutdown(f->fd, SHUT_RDWR);
  if (f->reader.joinable()) f->reader.join();
  std::lock_guard<std::mutex> lk(mu_);
  ::close(f->fd);
  f->fd = -1;
  f->ready = false;
  f->done = true;
  acks_cv_.notify_all();
}

void ReplicationLog::reader_main(Follower* f) {
  FrameDecoder dec(opts_.max_frame_bytes);
  std::string_view payload;
  ReplMessage m;
  while (net::read_frame(f->fd, dec, &payload) == FrameRead::kFrame) {
    if (!net::parse_repl(payload, &m) || m.type != MsgType::kReplAck)
      break;
    std::lock_guard<std::mutex> lk(mu_);
    f->acked_seq = std::max(f->acked_seq, m.arg);
    if (f->acked_seq > replicated_seq_) {
      replicated_seq_ = f->acked_seq;
      while (!pending_.empty() && pending_.front().seq <= replicated_seq_) {
        replicated_bytes_ = pending_.front().bytes;
        pending_.pop_front();
      }
      acks_cv_.notify_all();
    }
  }
  // Wake the sender so a half-dead connection (peer gone, sends still
  // buffering) is torn down promptly.
  ::shutdown(f->fd, SHUT_RDWR);
}

bool ReplicationLog::wait_follower(std::size_t n,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto ready_count = [&] {
    std::size_t ready = 0;
    for (const auto& f : followers_)
      if (f->ready) ++ready;
    return ready;
  };
  ++waiters_;
  (void)acks_cv_.wait_for(lk, timeout,
                          [&] { return stopping_ || ready_count() >= n; });
  if (--waiters_ == 0) acks_cv_.notify_all();
  return ready_count() >= n;
}

std::uint64_t ReplicationLog::min_follower_ack() const {
  std::lock_guard<std::mutex> lk(mu_);
  bool any = false;
  std::uint64_t min_ack = ~std::uint64_t{0};
  for (const auto& f : followers_) {
    if (!f->ready) continue;
    any = true;
    min_ack = std::min(min_ack, f->acked_seq);
  }
  return any ? min_ack : replicated_seq_;
}

bool ReplicationLog::wait_acked(std::uint64_t seq) {
  if (opts_.ack_mode == AckMode::kAsync) return true;
  const std::uint64_t target =
      opts_.ack_mode == AckMode::kSync
          ? seq
          : (seq > opts_.window ? seq - opts_.window : 0);
  if (target == 0) return true;
  std::unique_lock<std::mutex> lk(mu_);
  ++waiters_;
  const bool ok = acks_cv_.wait_for(lk, opts_.ack_timeout, [&] {
    return stopping_ || replicated_seq_ >= target;
  });
  if (--waiters_ == 0) acks_cv_.notify_all();
  if (!ok) ++sync_degraded_;
  return ok;
}

ReplicationStats ReplicationLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ReplicationStats s;
  s.leader_seq = leader_seq_;
  s.replicated_seq = replicated_seq_;
  for (const auto& f : followers_)
    if (f->ready) ++s.followers;
  s.records_sent = records_sent_;
  s.bytes_sent = bytes_sent_;
  s.checkpoints_shipped = checkpoints_shipped_;
  s.rejected_followers = rejected_followers_;
  s.sync_degraded = sync_degraded_;
  s.dropped_sends = dropped_sends_;
  s.torn_sends = torn_sends_;
  s.dup_sends = dup_sends_;
  s.idle_resends = idle_resends_;
  s.lag_records =
      leader_seq_ > replicated_seq_ ? leader_seq_ - replicated_seq_ : 0;
  s.lag_bytes = leader_bytes_ > replicated_bytes_
                    ? leader_bytes_ - replicated_bytes_
                    : 0;
  if (!pending_.empty()) {
    s.lag_ns = std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - pending_.front().at)
                   .count();
  }
  s.pending_entries = pending_.size();
  return s;
}

void ReplicationLog::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    records_cv_.notify_all();
    acks_cv_.notify_all();
  }
  journal_.set_commit_hook(nullptr);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& f : followers_)
      if (f->fd >= 0) ::shutdown(f->fd, SHUT_RDWR);
  }
  for (auto& f : followers_)
    if (f->session.joinable()) f->session.join();
  // Drain in-flight wait_acked()/wait_follower() callers: they wake on
  // stopping_ and leave promptly, but destruction must not pull
  // mu_/acks_cv_ out from under a waiter still inside its wait_for.
  std::unique_lock<std::mutex> lk(mu_);
  acks_cv_.wait(lk, [&] { return waiters_ == 0; });
}

}  // namespace ssma::serve::replication
