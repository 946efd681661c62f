// RpcServer: one server per cluster node, wrapping a NodeHandle (in practice
// the node's KvGdprStore) behind the wire protocol. Every connection — an
// in-process loopback socketpair handed out by CreateLoopbackConnection(),
// or whatever the optional listener (Unix or TCP) accepts — is served by
// its own thread: read a frame, dispatch it against the store, write the
// response frame, repeat. A slow request therefore delays only its own
// connection; the node store is thread-safe. A listener gets one accept
// thread.
//
// Robustness contract (test_rpc exercises all of it):
//   * A malformed request payload gets an error *response* frame and the
//     connection survives — one bad client message is not a disconnect.
//   * An oversized length prefix poisons the stream (wire.h FrameBuffer);
//     the connection drops, because no later frame boundary can be trusted.
//   * A response is only written after the store call returns — so a
//     durable-erasure op (DeleteRecordsByUser) is acked only after the
//     node's commit pipeline decided the tombstones durable, which is what
//     lets the router's Forget keep its "acked means durable everywhere"
//     contract over any transport.

#pragma once

#include <atomic>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "net/node_handle.h"
#include "net/wire.h"

namespace gdpr::net {

// Executes one decoded request against the store and builds the response.
// Shared by the serving threads and by anything that wants to serve the
// protocol without sockets (tests drive it directly).
WireResponse DispatchRequest(NodeHandle* store, const WireRequest& req);

class RpcServer {
 public:
  // Does not own the store; the store must outlive Stop().
  explicit RpcServer(NodeHandle* store);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Starts serving. listen_addr: "unix:<path>" / "tcp:host:port", or empty
  // for a loopback-only server (connections come exclusively from
  // CreateLoopbackConnection).
  Status Start(const std::string& listen_addr = "");
  // Shuts every connection down, joins their threads, closes the
  // listener. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Creates a connected AF_UNIX socketpair; the server end gets a serving
  // thread, the client end is returned (caller owns it). -1 when the
  // server is not running or the pair cannot be created.
  int CreateLoopbackConnection();

  const std::string& listen_addr() const { return listen_addr_; }

 private:
  struct Conn {
    int fd = -1;  // guarded by mu_; -1 once the serving thread closed it
    bool done = false;  // guarded by mu_
    std::thread thread;
  };

  // Gives fd a serving thread, reaping the threads of closed connections.
  // Closes fd and returns false once the server is stopping.
  bool Adopt(int fd);
  void Serve(Conn* conn);
  void AcceptLoop();

  NodeHandle* store_;
  std::string listen_addr_;
  int listen_fd_ = -1;

  std::mutex mu_;
  std::list<Conn> conns_;  // guarded by mu_; nodes never move
  std::atomic<bool> running_{false};
  std::thread accept_;
};

}  // namespace gdpr::net
