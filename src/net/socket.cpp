#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/wire_protocol.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ssma::net {

int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               bool nonblocking, std::uint16_t* bound_port) {
  const int fd = ::socket(
      AF_INET, SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
      0);
  SSMA_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    SSMA_CHECK_MSG(false, "bad listen address: " << host);
  }
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    SSMA_CHECK_MSG(false, "listen on " << host << ":" << port
                                       << " failed: " << std::strerror(err));
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  SSMA_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    SSMA_CHECK_MSG(false, "bad address: " << host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    SSMA_CHECK_MSG(false, "connect(" << host << ":" << port
                                     << ") failed: "
                                     << std::strerror(err));
  }
  set_nodelay(fd);
  return fd;
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool write_all(int fd, std::string_view bytes, std::size_t* written) {
  std::size_t off = 0;
  bool ok = true;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  if (written) *written = off;
  return ok;
}

FrameRead read_frame(int fd, FrameDecoder& dec,
                     std::string_view* payload) {
  char buf[64 * 1024];
  for (;;) {
    switch (dec.next(payload)) {
      case FrameDecoder::Result::kFrame:
        return FrameRead::kFrame;
      case FrameDecoder::Result::kBad:
        return FrameRead::kBad;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return FrameRead::kError;
    if (n == 0) return FrameRead::kEof;
    dec.feed(buf, static_cast<std::size_t>(n));
  }
}

std::chrono::milliseconds backoff_delay(std::chrono::milliseconds base,
                                        std::chrono::milliseconds cap,
                                        std::uint64_t attempt, Rng& rng) {
  std::uint64_t delay = std::min(
      static_cast<std::uint64_t>(cap.count()),
      static_cast<std::uint64_t>(base.count())
          << std::min<std::uint64_t>(attempt, 20));
  delay += rng.next_below(delay / 2 + 1);
  return std::chrono::milliseconds(delay);
}

}  // namespace ssma::net
