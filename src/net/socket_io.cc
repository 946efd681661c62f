#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace gdpr::net {

namespace {

constexpr std::string_view kUnixPrefix = "unix:";
constexpr std::string_view kTcpPrefix = "tcp:";

bool FillUnixAddr(const std::string& path, sockaddr_un* sa, std::string* err) {
  if (path.empty() || path.size() >= sizeof(sa->sun_path)) {
    *err = "unix socket path empty or too long: " + path;
    return false;
  }
  memset(sa, 0, sizeof(*sa));
  sa->sun_family = AF_UNIX;
  memcpy(sa->sun_path, path.data(), path.size());
  return true;
}

bool FillTcpAddr(const std::string& hostport, sockaddr_in* sa,
                 std::string* err) {
  const size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) {
    *err = "tcp address needs host:port, got: " + hostport;
    return false;
  }
  const std::string host = hostport.substr(0, colon);
  const int port = atoi(hostport.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    *err = "bad tcp port in: " + hostport;
    return false;
  }
  memset(sa, 0, sizeof(*sa));
  sa->sin_family = AF_INET;
  sa->sin_port = htons(uint16_t(port));
  if (host.empty() || host == "0.0.0.0" || host == "*") {
    sa->sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (host == "localhost") {
    sa->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  } else if (inet_pton(AF_INET, host.c_str(), &sa->sin_addr) != 1) {
    *err = "cannot parse tcp host: " + host;
    return false;
  }
  return true;
}

// Polls fd for `events` within timeout_ms. 1 = ready, 0 = timeout,
// -1 = poll error.
int WaitFor(int fd, short events, int timeout_ms) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int rc = poll(&p, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return rc;
    return 1;
  }
}

}  // namespace

int Listen(const std::string& addr, std::string* err) {
  if (addr.rfind(kUnixPrefix, 0) == 0) {
    const std::string path = addr.substr(kUnixPrefix.size());
    sockaddr_un sa;
    if (!FillUnixAddr(path, &sa, err)) return -1;
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      *err = std::string("socket: ") + strerror(errno);
      return -1;
    }
    unlink(path.c_str());  // stale socket file from a dead server
    if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        listen(fd, 64) != 0) {
      *err = std::string("bind/listen ") + addr + ": " + strerror(errno);
      close(fd);
      return -1;
    }
    return fd;
  }
  if (addr.rfind(kTcpPrefix, 0) == 0) {
    sockaddr_in sa;
    if (!FillTcpAddr(addr.substr(kTcpPrefix.size()), &sa, err)) return -1;
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *err = std::string("socket: ") + strerror(errno);
      return -1;
    }
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        listen(fd, 64) != 0) {
      *err = std::string("bind/listen ") + addr + ": " + strerror(errno);
      close(fd);
      return -1;
    }
    return fd;
  }
  *err = "address must start with unix: or tcp:, got: " + addr;
  return -1;
}

int Dial(const std::string& addr, int timeout_ms, std::string* err) {
  int fd = -1;
  sockaddr_storage ss;
  socklen_t len = 0;
  if (addr.rfind(kUnixPrefix, 0) == 0) {
    auto* sa = reinterpret_cast<sockaddr_un*>(&ss);
    if (!FillUnixAddr(addr.substr(kUnixPrefix.size()), sa, err)) return -1;
    fd = socket(AF_UNIX, SOCK_STREAM, 0);
    len = sizeof(sockaddr_un);
  } else if (addr.rfind(kTcpPrefix, 0) == 0) {
    auto* sa = reinterpret_cast<sockaddr_in*>(&ss);
    if (!FillTcpAddr(addr.substr(kTcpPrefix.size()), sa, err)) return -1;
    if (sa->sin_addr.s_addr == htonl(INADDR_ANY)) {
      sa->sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // dial "any" = loopback
    }
    fd = socket(AF_INET, SOCK_STREAM, 0);
    len = sizeof(sockaddr_in);
  } else {
    *err = "address must start with unix: or tcp:, got: " + addr;
    return -1;
  }
  if (fd < 0) {
    *err = std::string("socket: ") + strerror(errno);
    return -1;
  }
  (void)timeout_ms;  // local connects complete synchronously or fail fast
  if (connect(fd, reinterpret_cast<sockaddr*>(&ss), len) != 0) {
    *err = std::string("connect ") + addr + ": " + strerror(errno);
    close(fd);
    return -1;
  }
  return fd;
}

std::pair<int, int> StreamPair() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return {-1, -1};
  return {fds[0], fds[1]};
}

void CloseFd(int fd) {
  if (fd >= 0) close(fd);
}

Status WriteFrame(int fd, std::string_view payload, int timeout_ms) {
  // Gathers header and payload into each send: the header never leaves as
  // a segment of its own, and the payload is never copied into a frame.
  const std::string header = FrameHeader(payload.size());
  std::string_view head = header;
  while (!head.empty() || !payload.empty()) {
    iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(payload.data()), payload.size()}};
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    const ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      const size_t from_head = std::min(size_t(n), head.size());
      head.remove_prefix(from_head);
      payload.remove_prefix(size_t(n) - from_head);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int rc = WaitFor(fd, POLLOUT, timeout_ms);
      if (rc == 0) return Status::Unavailable("rpc write timed out");
      if (rc < 0) {
        return Status::Unavailable(std::string("rpc poll: ") +
                                   strerror(errno));
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("rpc write: ") +
                               (n < 0 ? strerror(errno) : "peer closed"));
  }
  return Status::OK();
}

Status ReadFrame(int fd, FrameBuffer* buf, std::string* payload,
                 int timeout_ms) {
  char chunk[16 * 1024];
  for (;;) {
    bool have = false;
    Status s = buf->Next(payload, &have);
    if (!s.ok()) return s;  // poisoned stream: DataLoss
    if (have) return Status::OK();
    const int rc = WaitFor(fd, POLLIN, timeout_ms);
    if (rc == 0) return Status::Unavailable("rpc read timed out");
    if (rc < 0) {
      return Status::Unavailable(std::string("rpc poll: ") + strerror(errno));
    }
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf->Feed(chunk, size_t(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return Status::Unavailable(
        n == 0 ? "rpc peer closed connection"
               : std::string("rpc read: ") + strerror(errno));
  }
}

}  // namespace gdpr::net
