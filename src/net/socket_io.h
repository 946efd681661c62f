// Thin POSIX socket helpers under the RPC layer: address parsing
// ("unix:<path>" / "tcp:<host>:<port>"), listener setup, dialing, and
// framed reads/writes that block. Kept separate from wire.{h,cc} so the
// codec stays a pure byte transform (fuzz-testable with no fds anywhere).
// "Never block forever" is the connection's deadline, set once where the
// connection is created: the kernel enforces it on connect and send, and
// ReadFrame reads it back from the socket to bound its wait for input.

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
// the listener fd; Dial() connects under the deadline timeout_ms, which
// the connection keeps. Both return -1 with *err set on failure.
int Listen(const std::string& addr, std::string* err);
int Dial(const std::string& addr, int timeout_ms, std::string* err);

// A connected AF_UNIX stream pair for in-process loopback transport.
// Returns {server_fd, client_fd}, or {-1, -1} on failure.
std::pair<int, int> StreamPair();

void CloseFd(int fd);

// The connection's deadline: a connect or send on fd fails after send_ms
// without progress, a receive after recv_ms; 0 is none. False if refused.
bool SetDeadline(int fd, int send_ms, int recv_ms);

// OK for a frame payload of `bytes`, or the refusal WriteFrame gives a
// larger one than kMaxFrameBytes: an Unavailable naming size and limit.
Status CheckFrameSize(size_t bytes);

// Writes one frame (length header, then payload). Unavailable when the
// connection's deadline passes or the peer is dead; never raises SIGPIPE.
// A payload over kMaxFrameBytes is refused (CheckFrameSize) before any
// byte is sent, so the connection stays in step.
Status WriteFrame(int fd, std::string_view payload);

// Reads one frame from fd: its header, then its payload straight into
// *payload. The payload is sized as its bytes arrive: up to 64 KiB at
// once, then doubling, so memory stays within twice what was received.
// Consumes no byte past the frame. Unavailable when the connection's
// deadline passes or on EOF before the frame is whole; DataLoss on a
// length prefix over kMaxFrameBytes, refused before anything is sized: no
// later frame boundary can be trusted, so the caller drops the connection.
Status ReadFrame(int fd, std::string* payload);

}  // namespace gdpr::net
