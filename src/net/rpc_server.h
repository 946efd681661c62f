// RpcServer: one server per cluster node, wrapping a NodeHandle (in practice
// the node's KvGdprStore) behind the wire protocol. A single poll()-based
// event loop owns every connection — the listener (Unix or TCP, optional),
// in-process loopback socketpairs handed out by CreateLoopbackConnection(),
// and whatever accept() yields — reads frames, dispatches them against the
// store, and writes response frames back.
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
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/node_handle.h"
#include "net/wire.h"

namespace gdpr::net {

// Executes one decoded request against the store and builds the response.
// Shared by the event loop and by anything that wants to serve the
// protocol without sockets (tests drive it directly).
WireResponse DispatchRequest(NodeHandle* store, const WireRequest& req);

class RpcServer {
 public:
  // Does not own the store; the store must outlive Stop().
  explicit RpcServer(NodeHandle* store);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Starts the event loop. listen_addr: "unix:<path>" / "tcp:host:port",
  // or empty for a loopback-only server (connections come exclusively from
  // CreateLoopbackConnection).
  Status Start(const std::string& listen_addr = "");
  // Drains the loop and closes every connection. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Creates a connected AF_UNIX socketpair; the server end joins the event
  // loop, the client end is returned (caller owns it). -1 when the server
  // is not running or the pair cannot be created.
  int CreateLoopbackConnection();

  const std::string& listen_addr() const { return listen_addr_; }

 private:
  void Loop();
  void Wake();
  // Drains every complete frame currently buffered on connection i.
  // Returns false when the connection must drop.
  bool ServeBuffered(size_t i);

  NodeHandle* store_;
  std::string listen_addr_;
  int listen_fd_ = -1;
  int wake_rd_ = -1;  // self-pipe: Stop() and new loopback fds wake poll()
  int wake_wr_ = -1;

  struct Conn {
    int fd;
    FrameBuffer buf;
  };
  std::vector<Conn> conns_;  // event-loop thread only

  std::mutex pending_mu_;
  std::vector<int> pending_fds_;  // loopback fds awaiting loop adoption

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread loop_;
};

}  // namespace gdpr::net
