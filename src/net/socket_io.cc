#include "net/socket_io.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace gdpr::net {

namespace {

constexpr std::string_view kUnixPrefix = "unix:";
constexpr std::string_view kTcpPrefix = "tcp:";
// ReadFrame's first payload allocation; larger frames grow from here.
constexpr size_t kFirstChunk = 64 << 10;

// Resolves addr into *sa and *len, the one place both address forms are
// parsed, and opens a stream socket of its family. -1 with *err set on
// failure.
int OpenSocket(const std::string& addr, sockaddr_storage* sa, socklen_t* len,
               std::string* err) {
  *sa = {};
  if (addr.rfind(kUnixPrefix, 0) == 0) {
    const std::string path = addr.substr(kUnixPrefix.size());
    auto* un = reinterpret_cast<sockaddr_un*>(sa);
    if (path.empty() || path.size() >= sizeof(un->sun_path)) {
      *err = "unix socket path empty or too long: " + path;
      return -1;
    }
    un->sun_family = AF_UNIX;
    memcpy(un->sun_path, path.data(), path.size());
    *len = sizeof(*un);
  } else if (addr.rfind(kTcpPrefix, 0) == 0) {
    const std::string hostport = addr.substr(kTcpPrefix.size());
    const size_t colon = hostport.rfind(':');
    if (colon == std::string::npos) {
      *err = "tcp address needs host:port, got: " + hostport;
      return -1;
    }
    const std::string host = hostport.substr(0, colon);
    const int port = atoi(hostport.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      *err = "bad tcp port in: " + hostport;
      return -1;
    }
    auto* in = reinterpret_cast<sockaddr_in*>(sa);
    in->sin_family = AF_INET;
    in->sin_port = htons(uint16_t(port));
    if (host.empty() || host == "0.0.0.0" || host == "*") {
      in->sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (host == "localhost") {
      in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    } else if (inet_pton(AF_INET, host.c_str(), &in->sin_addr) != 1) {
      *err = "cannot parse tcp host: " + host;
      return -1;
    }
    *len = sizeof(*in);
  } else {
    *err = "address must start with unix: or tcp:, got: " + addr;
    return -1;
  }
  const int fd = socket(sa->ss_family, SOCK_STREAM, 0);
  if (fd < 0) *err = std::string("socket: ") + strerror(errno);
  return fd;
}

// errno as text. A blocking call that ran into the connection's deadline
// fails with EAGAIN (a TCP connect with EINPROGRESS): that is a timeout.
std::string ErrnoText() {
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINPROGRESS) {
    return "timed out";
  }
  return strerror(errno);
}

// fd's receive deadline (SO_RCVTIMEO) in ms as a poll timeout: -1, wait
// for ever, when the connection has none.
int RecvDeadlineMs(int fd) {
  timeval tv{};  // stays zero, no deadline, if getsockopt fails
  socklen_t len = sizeof(tv);
  getsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, &len);
  const long ms = tv.tv_sec * 1000L + tv.tv_usec / 1000;
  return ms > 0 ? int(ms) : -1;
}

// Receives exactly n bytes into p. Every wait for input is a poll bounded
// by wait_ms, not a blocking recv: an AF_UNIX recv is also woken each time
// the peer drains this socket's sends, a wasted context switch per
// request, while poll wakes only for input. Each recv takes only what is
// queued, so none blocks. queued: input is known to be waiting, so the
// first recv goes without a poll.
Status RecvExact(int fd, char* p, size_t n, int wait_ms, bool queued) {
  while (n > 0) {
    if (!queued) {
      pollfd pfd{fd, POLLIN, 0};
      const int rc = poll(&pfd, 1, wait_ms);
      if (rc == 0) return Status::Unavailable("rpc read: timed out");
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) return Status::Unavailable("rpc poll: " + ErrnoText());
    }
    const ssize_t got = recv(fd, p, n, MSG_DONTWAIT);
    // A short read drained the queue, as did EAGAIN: wait before the next.
    queued = false;
    if (got > 0) {
      p += got;
      n -= size_t(got);
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
      continue;
    }
    return Status::Unavailable(got == 0 ? "rpc peer closed connection"
                                        : "rpc read: " + ErrnoText());
  }
  return Status::OK();
}

// Sets *err to "<what>: <errno text>", closes fd and returns -1.
int Fail(int fd, const std::string& what, std::string* err) {
  *err = what + ": " + ErrnoText();
  close(fd);
  return -1;
}

}  // namespace

int Listen(const std::string& addr, std::string* err) {
  sockaddr_storage sa{};
  socklen_t len = 0;
  const int fd = OpenSocket(addr, &sa, &len, err);
  if (fd < 0) return -1;
  if (sa.ss_family == AF_UNIX) {
    // A stale socket file from a dead server.
    unlink(reinterpret_cast<sockaddr_un*>(&sa)->sun_path);
  } else {
    const int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&sa), len) != 0 ||
      listen(fd, 64) != 0) {
    return Fail(fd, "bind/listen " + addr, err);
  }
  return fd;
}

int Dial(const std::string& addr, int timeout_ms, std::string* err) {
  sockaddr_storage sa{};
  socklen_t len = 0;
  const int fd = OpenSocket(addr, &sa, &len, err);
  if (fd < 0) return -1;
  auto* in = reinterpret_cast<sockaddr_in*>(&sa);
  if (sa.ss_family == AF_INET && in->sin_addr.s_addr == INADDR_ANY) {
    in->sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // dial "any" = loopback
  }
  // The deadline first: Linux bounds a blocking connect by the send
  // timeout.
  if (!SetDeadline(fd, timeout_ms, timeout_ms) ||
      connect(fd, reinterpret_cast<sockaddr*>(&sa), len) != 0) {
    return Fail(fd, "connect " + addr, err);
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

bool SetDeadline(int fd, int send_ms, int recv_ms) {
  for (const auto& [opt, ms] : {std::pair{SO_SNDTIMEO, send_ms},
                                std::pair{SO_RCVTIMEO, recv_ms}}) {
    timeval tv{};  // zero: no deadline
    if (ms > 0) tv = {ms / 1000, ms % 1000 * 1000};
    if (setsockopt(fd, SOL_SOCKET, opt, &tv, sizeof(tv)) != 0) return false;
  }
  return true;
}

Status CheckFrameSize(size_t bytes) {
  if (bytes <= kMaxFrameBytes) return Status::OK();
  return Status::Unavailable("rpc write: frame payload of " +
                             std::to_string(bytes) + " bytes exceeds limit " +
                             std::to_string(kMaxFrameBytes));
}

Status WriteFrame(int fd, std::string_view payload) {
  // The peer would refuse the length and drop the connection; refusing
  // here, before any byte leaves, keeps the connection and says why.
  if (Status s = CheckFrameSize(payload.size()); !s.ok()) return s;
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
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable("rpc write: " +
                               (n < 0 ? ErrnoText() : "peer closed"));
  }
  return Status::OK();
}

Status ReadFrame(int fd, std::string* payload) {
  const int wait_ms = RecvDeadlineMs(fd);
  char header[kFrameHeaderBytes];
  Status s = RecvExact(fd, header, sizeof(header), wait_ms, /*queued=*/false);
  if (!s.ok()) return s;
  uint32_t len = 0;
  for (size_t i = 0; i < sizeof(header); ++i) {
    len |= uint32_t(uint8_t(header[i])) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    // No later frame boundary can be found after a bogus length: the
    // caller drops the connection.
    return Status::DataLoss("frame length " + std::to_string(len) +
                            " exceeds limit " +
                            std::to_string(kMaxFrameBytes));
  }
  // The payload is sized as its bytes arrive, never ahead of them: a
  // header that claims a large length and then stalls holds at most
  // kFirstChunk. Each step doubles, so memory stays within twice what
  // arrived, and a frame up to kFirstChunk is sized once.
  payload->clear();
  size_t have = 0;
  while (have < len) {
    const size_t want = std::min<size_t>(len, std::max(kFirstChunk, 2 * have));
    payload->resize(want);
    // A sender writes header and payload together, so the payload is
    // usually queued behind the header already, as is each next chunk.
    s = RecvExact(fd, payload->data() + have, want - have, wait_ms,
                  /*queued=*/true);
    if (!s.ok()) return s;
    have = want;
  }
  return Status::OK();
}

}  // namespace gdpr::net
