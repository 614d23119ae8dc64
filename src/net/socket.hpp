// Blocking TCP plumbing shared by every peer outside the front door's
// epoll loop: NetClient, the replication leader and follower, and the
// tests that stand in for them. Each helper does one job the same way
// everywhere — listen, connect, write every byte, read one CRC frame,
// and pace reconnects — so policy (what a failure means) stays with
// the caller: NetClient throws and poisons its stream, replication ends
// the session and lets the follower redial.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ssma {
class Rng;
}  // namespace ssma

namespace ssma::net {

class FrameDecoder;

/// Binds host:port (0 = an ephemeral port) with SO_REUSEADDR and
/// listens. Returns the listening fd and stores the bound port in
/// `*bound_port`. Throws CheckError when any step fails.
int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               bool nonblocking, std::uint16_t* bound_port);

/// Connects to host:port and disables Nagle. Returns the fd; throws
/// CheckError on a bad address or a refused or failed connect.
int connect_tcp(const std::string& host, std::uint16_t port);

/// Sets TCP_NODELAY (best effort: latency tuning, not correctness).
void set_nodelay(int fd);

/// Writes every byte, retrying EINTR. False on any other error (errno
/// holds the cause); `*written`, when given, receives how many bytes
/// went out, so a caller can tell a torn frame from an unsent one.
bool write_all(int fd, std::string_view bytes,
               std::size_t* written = nullptr);

enum class FrameRead {
  kFrame,  ///< *payload holds one CRC-validated payload
  kEof,    ///< the peer closed; dec.buffered_bytes() != 0 means mid-frame
  kBad,    ///< oversized length word or CRC mismatch
  kError,  ///< recv failed; errno holds the cause
};

/// Blocks until `dec` yields one frame, refilling it from `fd` as
/// needed (retrying EINTR). On kFrame, *payload views the payload in
/// `dec`'s buffer, valid until dec's next feed() or next().
FrameRead read_frame(int fd, FrameDecoder& dec, std::string_view* payload);

/// Delay before retry number `attempt` (0-based): base * 2^attempt
/// capped at `cap`, plus seeded jitter of up to half that step, which
/// spreads reconnect storms while staying reproducible from the seed.
std::chrono::milliseconds backoff_delay(std::chrono::milliseconds base,
                                        std::chrono::milliseconds cap,
                                        std::uint64_t attempt, Rng& rng);

}  // namespace ssma::net
