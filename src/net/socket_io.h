// Thin POSIX socket helpers under the RPC layer: address parsing
// ("unix:<path>" / "tcp:<host>:<port>"), listener setup, dialing, and
// poll-bounded framed reads/writes. Kept separate from wire.{h,cc} so the
// codec stays a pure byte transform (fuzz-testable with no fds anywhere)
// and the server/client share one implementation of "never block forever".

#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "net/wire.h"

namespace gdpr::net {

// Accepted address forms:
//   unix:/path/to.sock     AF_UNIX stream listener / dial target
//   tcp:host:port          AF_INET (host "0.0.0.0" or a dotted quad)
// Listen() binds + listens (unlinking a stale unix path first) and returns
// the listener fd; Dial() connects. Both return -1 with *err set on
// failure.
int Listen(const std::string& addr, std::string* err);
int Dial(const std::string& addr, int timeout_ms, std::string* err);

// A connected AF_UNIX stream pair for in-process loopback transport.
// Returns {server_fd, client_fd}, or {-1, -1} on failure.
std::pair<int, int> StreamPair();

void CloseFd(int fd);

// Writes one frame (length header, then payload), polling for writability
// between partial sends. Unavailable on timeout or a dead peer; never
// raises SIGPIPE.
Status WriteFrame(int fd, std::string_view payload, int timeout_ms);

// Reads from fd into buf until one complete frame pops out, polling with
// the given budget (-1: no deadline). OK + payload on success; Unavailable
// on timeout or EOF-before-frame; DataLoss when the stream is unframeable
// (oversized length prefix — the connection cannot be resynchronized).
Status ReadFrame(int fd, FrameBuffer* buf, std::string* payload,
                 int timeout_ms);

}  // namespace gdpr::net
