// Copyright (c) the SLADE reproduction authors.
// Network front end: a long-lived HTTP/1.1 JSON server over the streaming
// engine.
//
// The platform story so far ends at a C++ API: StreamingEngine::Submit.
// SladeServer puts a wire in front of it so requesters on other machines
// (and load generators in CI) can drive the decomposition platform over
// plain HTTP:
//
//   POST /v1/submit   {"requester": "r1", "tasks": [[0.9, 0.8], [0.7]]}
//     -> 200 with the requester's plan slice (cost, bins, flush id,
//        latency), or 429 + Retry-After when admission backpressure
//        rejects or sheds the submission, or 400/413 on malformed input.
//   GET /v1/stats     engine + per-tenant + server counters as JSON.
//   GET /healthz      liveness probe ("ok").
//
// Concurrency model: one event-loop thread owns every socket -- it
// accepts, reads, feeds the strict bounded HttpRequestParser, and writes
// responses (partial writes included). Each complete request runs as one
// job on a ThreadPool of ServerOptions::num_workers threads; a job may
// block on the engine future (that *is* the kBlock backpressure story: a
// slow solver turns into TCP backpressure on the submitting connection),
// then posts the finished response back to the loop through a self-pipe.
// A connection processes one request at a time; pipelined bytes stay
// buffered in its parser until the in-flight response is written, so
// responses are trivially in order.
//
// Shutdown() is graceful and idempotent: the listener closes first (no
// new connections), in-flight requests finish and their responses are
// flushed, then the loop exits. It exits only once no connection is busy,
// so no handler job is left and the pool is destroyed right after. The
// engine is drained by its own destructor after the server is gone, so
// every admitted submission is answered even on shutdown.

#ifndef SLADE_SERVER_SLADE_SERVER_H_
#define SLADE_SERVER_SLADE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/thread_pool.h"
#include "durability/journal.h"
#include "engine/streaming_engine.h"
#include "server/http_parser.h"

namespace slade {

struct ServerOptions {
  /// Listen address; tests bind 127.0.0.1.
  std::string address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker threads executing request handlers. Submit handlers block on
  /// the engine future, so this bounds concurrent in-flight submissions.
  size_t num_workers = 4;
  /// Hard cap on concurrent connections; accepts beyond it are refused
  /// with 503 and closed.
  size_t max_connections = 256;
  /// Request parsing caps (request line, headers, body).
  HttpParserLimits parser_limits;
  /// Advisory Retry-After (seconds) on 429 responses.
  uint64_t retry_after_seconds = 1;
  /// Durability journal backing the engine (non-owning; must outlive the
  /// server). When set, /v1/stats exports the durability counters and
  /// Shutdown() finishes the crash-safety story: drain the engine, write
  /// a clean-shutdown checkpoint, compact — so a restart on the same WAL
  /// directory skips recovery. nullptr = no durability (previous
  /// behavior).
  SubmissionJournal* journal = nullptr;
};

/// \brief Wire-level counters, readable at any time via stats().
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;  ///< over max_connections
  uint64_t requests = 0;             ///< complete requests dispatched
  uint64_t responses_2xx = 0;
  uint64_t responses_4xx = 0;
  uint64_t responses_5xx = 0;
  uint64_t rejected_429 = 0;   ///< backpressure / quota rejections
  uint64_t parse_errors = 0;   ///< malformed requests (400/413/431/...)
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

/// \brief HTTP/1.1 front end over a StreamingEngine (not owned; it must
/// outlive the server, and destroying it after Shutdown() drains every
/// admitted submission).
class SladeServer {
 public:
  SladeServer(StreamingEngine* engine, ServerOptions options = {});
  ~SladeServer();  ///< implies Shutdown()

  SladeServer(const SladeServer&) = delete;
  SladeServer& operator=(const SladeServer&) = delete;

  /// Binds, listens, and starts the event loop + workers. Fails with
  /// IoError if the address/port cannot be bound. Calling Start() twice
  /// is an error.
  Status Start();

  /// The bound port (resolves port 0 to the actual ephemeral port).
  /// Valid after a successful Start().
  uint16_t port() const { return port_; }

  /// Graceful stop: close the listener, finish in-flight requests, flush
  /// their responses, join all threads. Safe to call from any thread and
  /// any number of times; later calls are no-ops.
  void Shutdown();

  ServerStats stats() const;

 private:
  struct Connection {
    int fd = -1;
    HttpRequestParser parser;
    std::string outbox;      ///< response bytes not yet written
    size_t out_offset = 0;
    bool busy = false;       ///< a request is in flight on the pool
    bool close_after_write = false;
    explicit Connection(HttpParserLimits limits) : parser(limits) {}
  };

  struct Finished {
    uint64_t conn_id = 0;
    std::string response;
    bool close_after_write = false;
  };

  void EventLoop();
  void AcceptPending();
  /// Reads from `conn`, feeds the parser, dispatches at most one request
  /// or queues an error response. Returns false when the connection died;
  /// the caller must CloseConnection (never erases connections_ itself,
  /// so it is safe to call while iterating the map).
  bool ReadAndDispatch(uint64_t conn_id, Connection* conn);
  /// Flushes the outbox. Returns false when the connection died.
  bool WriteOut(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void NotifyLoop();  ///< self-pipe wakeup

  /// Runs one request to a response (status line through body). Counts
  /// response classes under stats_mutex_.
  std::string Handle(const HttpRequest& request, bool* close_connection);
  std::string HandleSubmit(const HttpRequest& request, int* status_code);
  std::string HandleStats();
  /// `head_only` (HEAD requests) sends the headers -- Content-Length
  /// still describes the body a GET would return -- but omits the body.
  static std::string RenderResponse(int status_code, const std::string& body,
                                    bool close_connection,
                                    const std::string& extra_headers,
                                    bool head_only = false);

  StreamingEngine* const engine_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  // Owned by the event loop; only it touches connections_ after Start().
  std::map<uint64_t, Connection> connections_;
  uint64_t next_conn_id_ = 1;

  std::mutex finished_mutex_;
  std::deque<Finished> finished_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;

  std::unique_ptr<ThreadPool> pool_;  ///< runs Handle(); created by Start()
  std::thread loop_thread_;
  std::mutex shutdown_mutex_;  ///< serializes concurrent Shutdown() calls
};

}  // namespace slade

#endif  // SLADE_SERVER_SLADE_SERVER_H_
