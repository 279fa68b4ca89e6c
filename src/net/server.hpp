// Networked front end for the design-query service: a small epoll-based
// TCP server speaking the newline-delimited JSON protocol of
// net/protocol.hpp.
//
// Threading model (1 + W + 1 threads + the exec pool, no thread per
// connection):
//
//   * One I/O thread owns every socket: non-blocking accept/read/write
//     behind epoll, frame decoding, request parsing, and response writes.
//     It never executes a query — `stats` requests (and malformed-frame
//     errors) are answered inline so they can never queue behind a cold
//     search; `query` requests are admitted into bounded per-worker
//     queues. The one exception is a repeat whose encoded answer is
//     already cached and valid (DesignService::lookup_encoded): when the
//     worker its scope routes to is idle (nothing queued, nothing running,
//     no finished answer still waiting for the I/O thread) the cached
//     bytes are written at once, with no hand-off. An idle worker stays
//     idle until the I/O thread enqueues, so such an answer can never
//     overtake a same-scope query admitted before it.
//   * The I/O thread memoizes parsed queries by their request bytes: a
//     text query frame in to_json(Request)'s layout (split_query_frame)
//     whose bytes after the id were parsed before skips the JSON parse,
//     the canonical key and the fingerprint, and takes its route from the
//     memo. The memo holds as many entries as the response cache (none
//     when the cache is off), evicts the oldest first, and counts its hits
//     in ServerStats::query_memo_hits.
//   * W dispatch workers (ServerConfig::search_workers, env
//     METACORE_SERVER_WORKERS, default = hardware concurrency). An
//     admitted search query is routed to worker
//     serve::fingerprint_hash(query_fingerprint(query)) % W — all queries
//     on one evaluator fingerprint land on one worker and keep arrival
//     order (preserving coalescing and byte-exact determinism), while
//     distinct fingerprints dispatch concurrently. Each worker drains its
//     queue in arrival order and hands the drained batch to
//     DesignService::submit_batch — so the in-flight coalescing,
//     per-fingerprint sequencing, and exec-pool fan-out built in PR 3
//     serve network traffic unchanged at any worker count.
//   * One fast-lane worker for cheap query kinds (`archive_only`): an
//     archive probe never queues behind a cold search on another
//     evaluator. (Archive answers reflect whatever searches completed
//     before dispatch, exactly as an in-process submit at that moment
//     would.)
//   * Completed responses flow back to the I/O thread over an
//     eventfd-signalled completion queue; only the I/O thread ever
//     touches a socket.
//
// Backpressure / admission control: the pending queue is bounded
// (ServerConfig::max_pending_queries, env METACORE_SERVER_QUEUE). A query
// arriving while the queue is full gets an immediate structured
// {"status":"rejected","reason":"overloaded"} response — the server never
// queues unboundedly, and a client that keeps pipelining into an
// overloaded server only ever costs one small rejection frame per query.
//
// Graceful drain: shutdown() (or request_shutdown() from a SIGTERM
// handler — it is async-signal-safe) stops accepting, rejects newly
// arriving queries with reason "draining", finishes every admitted query,
// flushes the responses, closes every socket, and returns. The final
// stats snapshot is available afterwards via stats()/stats_json().
//
// Per-connection memory is bounded too: a connection's outbox may hold at
// most kOutboxCapFrames * max_frame_bytes of unwritten responses. A client
// that keeps sending (say, pipelined `stats` requests) but never reads is
// paused at the cap — the server stops reading its socket, so further
// requests wait in the kernel buffers at the client's cost — and resumed
// once its outbox has drained, starting with the frames it had already
// sent. Each pause is counted in ServerStats::backpressure_pauses.
//
// Client disconnects are survivable by construction: SIGPIPE is ignored
// process-wide at start() (writes use MSG_NOSIGNAL as well), and a
// response whose connection died before it could be written is counted in
// ServerStats::dropped_responses instead of killing the process.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "serve/service.hpp"

namespace metacore::net {

struct Request;  // net/protocol.hpp

/// A connection whose unwritten responses reach this many max_frame_bytes
/// stops being read until they drain.
inline constexpr std::size_t kOutboxCapFrames = 4;

struct ServerConfig {
  /// Bind address; loopback by default (a deployment fronting real
  /// traffic sets "0.0.0.0" explicitly).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back with port()).
  int port = 0;
  /// Admission quota: queries queued-but-not-yet-dispatched before the
  /// server answers "rejected: overloaded". Env: METACORE_SERVER_QUEUE.
  std::size_t max_pending_queries = 256;
  /// Per-frame read limit; an oversized line is dropped (connection
  /// survives) and answered with a descriptive error.
  /// Env: METACORE_SERVER_MAX_FRAME.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Accepted-connection cap; excess accepts are closed immediately and
  /// counted in ServerStats::refused_connections.
  std::size_t max_connections = 1024;
  /// During drain, how long to wait for clients to read their final
  /// responses before force-closing.
  int drain_flush_timeout_ms = 5000;
  /// Dispatch workers for search queries (the fast lane for cheap kinds
  /// is one extra). 0 = hardware concurrency, resolved at start().
  /// Env: METACORE_SERVER_WORKERS (positive; capped at 128).
  std::size_t search_workers = 0;
  /// Whether a client hello asking for the MCB1 binary wire mode is
  /// granted. When false the server answers hello with "wire":"text" and
  /// the connection stays on newline-delimited JSON — the downgrade path
  /// a binary-capable client must survive. Env: METACORE_SERVER_BINARY
  /// ("0"/"1").
  bool enable_binary = true;

  /// Defaults with METACORE_SERVER_QUEUE / METACORE_SERVER_MAX_FRAME /
  /// METACORE_SERVER_WORKERS / METACORE_SERVER_BINARY applied; throws
  /// std::invalid_argument on malformed values.
  static ServerConfig from_env();
};

/// Monotonic counters since start() plus a latency snapshot. Service-level
/// accounting (coalescing, store hits) lives in serve::ServiceStats; the
/// wire `stats` response carries both.
struct ServerStats {
  std::size_t accepted_connections = 0;
  /// Connections closed at accept because max_connections were open.
  std::size_t refused_connections = 0;
  /// Connections accepted and closed at once because the process was out
  /// of file descriptors (EMFILE/ENFILE); their clients read end-of-stream.
  std::size_t shed_connections = 0;
  std::size_t active_connections = 0;
  std::size_t queries_received = 0;  ///< well-formed query frames
  std::size_t queries_served = 0;    ///< ok responses queued for write
  std::size_t queries_rejected = 0;  ///< overloaded/draining rejections
  std::size_t query_errors = 0;      ///< queries answered with status error
  std::size_t stats_requests = 0;
  std::size_t hello_requests = 0;    ///< wire-mode negotiation frames
  /// Connections that negotiated the MCB1 binary wire mode (cumulative,
  /// like accepted_connections).
  std::size_t binary_connections = 0;
  std::size_t malformed_frames = 0;  ///< frames failing parse_request
  std::size_t oversized_frames = 0;  ///< frames over max_frame_bytes
  std::size_t dropped_responses = 0; ///< connection died before delivery
  /// Times a connection stopped being read because its outbox reached the
  /// cap (kOutboxCapFrames * max_frame_bytes).
  std::size_t backpressure_pauses = 0;
  /// Response bytes queued for write across all connections right now.
  std::size_t outbox_bytes = 0;
  std::size_t queue_depth = 0;       ///< pending queries right now
  std::size_t in_flight = 0;         ///< queries inside submit_batch now
  /// Service latency (admission to response-ready) over a sliding window
  /// of up to 8192 recent queries.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  std::size_t latency_samples = 0;   ///< total latency samples recorded

  // Worker-pool accounting.
  std::size_t workers = 0;           ///< search dispatch workers (fast lane
                                     ///< not included)
  std::size_t fast_lane_queries = 0; ///< queries routed to the fast lane
  /// Queued + running queries per worker right now; the last entry is the
  /// fast lane.
  std::vector<std::size_t> worker_depths;
  /// Queries answered on the I/O thread from cached bytes, without a
  /// dispatch worker (also counted in queries_served).
  std::size_t inline_answers = 0;
  /// Query frames whose parse, canonical key, fingerprint and route came
  /// from the I/O thread's memo (also counted in queries_received).
  std::size_t query_memo_hits = 0;
};

std::string to_json(const ServerStats& stats);

class DesignServer {
 public:
  /// The server shares the service (and through it the store): in-process
  /// submits and networked queries coalesce against each other.
  explicit DesignServer(std::shared_ptr<serve::DesignService> service,
                        ServerConfig config = ServerConfig::from_env());
  ~DesignServer();

  DesignServer(const DesignServer&) = delete;
  DesignServer& operator=(const DesignServer&) = delete;

  /// Binds, listens, and spawns the I/O + dispatch threads. Throws
  /// std::runtime_error on socket/bind failure. Ignores SIGPIPE
  /// process-wide (abandoned clients must never kill the server).
  void start();

  /// The bound TCP port (resolves an ephemeral request); 0 before start().
  int port() const noexcept { return port_; }

  bool running() const noexcept { return running_.load(); }

  /// Initiates graceful drain and blocks until the server is fully
  /// stopped: listener closed, admitted queries answered, responses
  /// flushed, sockets closed, threads joined. Idempotent.
  void shutdown();

  /// Async-signal-safe drain trigger (write(2) on an eventfd): safe to
  /// call from a SIGTERM/SIGINT handler. The caller still runs
  /// shutdown() (or wait() then shutdown()) to join the threads.
  void request_shutdown() noexcept;

  /// Blocks until the event loop has exited (drain complete or never
  /// started).
  void wait();

  ServerStats stats() const;

  /// The combined wire-format stats document:
  /// {"server":{...ServerStats...},"service":{...ServiceStats + store...}}.
  std::string stats_json() const;

 private:
  struct Connection;
  struct PendingQuery;
  struct Completion;
  struct Worker;

  /// Everything a query's bytes after its request id determine: shared by
  /// the memo and the queries admitted from it, never modified.
  struct ParsedQuery {
    serve::DesignQuery query;
    std::string key;          ///< serve::to_json(query)
    std::string fingerprint;  ///< from route_query; empty = unconstructible
    std::size_t route = 0;    ///< worker index from route_query
  };

  /// Hashes std::string and std::string_view alike, so a memo lookup by a
  /// slice of the frame allocates no key.
  struct ViewHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view bytes) const noexcept {
      return std::hash<std::string_view>{}(bytes);
    }
  };

  void io_loop();
  void worker_loop(Worker& worker);
  /// Worker index for an admitted query with canonical key `key`:
  /// fingerprint-hash routing for searches, the fast lane (last worker)
  /// for archive_only. Leaves the query's fingerprint in `fingerprint`
  /// (empty for queries whose evaluator cannot be built).
  std::size_t route_query(const serve::DesignQuery& query,
                          const std::string& key,
                          std::string& fingerprint) const;
  /// The key, fingerprint and route of a freshly parsed query.
  std::shared_ptr<const ParsedQuery> prepare_query(
      serve::DesignQuery&& query) const;
  /// Memoizes `parsed` under the frame bytes `rest` (split_query_frame),
  /// evicting the oldest entry when the memo is full.
  void remember_query(std::string_view rest,
                      const std::shared_ptr<const ParsedQuery>& parsed);
  /// Answers a query on the I/O thread from the service's cached bytes
  /// when `worker` is idle and the bytes are valid; false = not answered
  /// (the caller enqueues it as usual).
  bool answer_inline(Connection& conn, Worker& worker,
                     const std::string& request_id, const ParsedQuery& parsed,
                     std::chrono::steady_clock::time_point arrival);
  /// Adds one latency sample (admission to response-ready); the caller
  /// holds stats_mutex_.
  void record_latency(std::chrono::steady_clock::time_point arrival,
                      std::chrono::steady_clock::time_point ready);
  void accept_ready();
  bool shed_connection();
  void connection_readable(Connection& conn);
  /// Handles the frames already sitting in the connection's decoder until
  /// none is left or its outbox reaches the cap (which pauses reading).
  /// Returns false when the connection died.
  bool process_buffered_frames(Connection& conn);
  /// Resumes reading every paused connection whose outbox has drained.
  void resume_drained_connections();
  void connection_writable(Connection& conn);
  void handle_frame(Connection& conn, const Frame& frame);
  void handle_binary_frame(Connection& conn, const BinaryFrame& frame);
  /// Wire-mode negotiation (text-only; must precede any query/stats).
  /// Returns false when the connection died mid-reply.
  bool handle_hello(Connection& conn, const Request& request);
  /// Mode-independent request handling: stats are answered inline...
  void answer_stats(Connection& conn, const std::string& request_id);
  /// ...and queries admitted (or rejected) into the worker queues, or
  /// answered inline. `memo_hit` = `parsed` came from the memo.
  void admit_query(Connection& conn, std::string request_id,
                   std::shared_ptr<const ParsedQuery> parsed, bool memo_hit);
  void enqueue_response(Connection& conn, const std::string& envelope);
  void push_outbox(Connection& conn, std::string bytes);
  /// Flushes as much of the outbox as the socket accepts; closes the
  /// connection on a write error. Returns false when the connection died.
  bool flush_outbox(Connection& conn);
  void close_connection(std::uint64_t conn_id, const char* why);
  void drain_completions();
  void update_epoll(Connection& conn);
  void wake_io() noexcept;
  bool drain_complete();

  std::shared_ptr<serve::DesignService> service_;
  ServerConfig config_;
  int port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  /// An fd held back so that, out of descriptors, the I/O thread can still
  /// accept a pending connection in order to close it (shed_connection).
  int reserve_fd_ = -1;

  std::thread io_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  bool shutdown_done_ = false;
  std::mutex lifecycle_mutex_;
  std::condition_variable stopped_cv_;
  bool io_stopped_ = true;

  // Owned exclusively by the I/O thread after start().
  std::map<std::uint64_t, std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 1;
  /// Connections whose reading is paused by the outbox cap.
  std::vector<std::uint64_t> paused_connections_;
  /// kOutboxCapFrames * max_frame_bytes (saturating).
  std::size_t outbox_cap_ = 0;
  /// Sum of every connection's queued response bytes (ServerStats).
  std::atomic<std::size_t> outbox_bytes_{0};
  /// Parsed queries by the frame bytes after their id (split_query_frame),
  /// at most memo_capacity_ of them; memo_fifo_ views each key once,
  /// oldest first, for eviction.
  std::size_t memo_capacity_ = 0;
  std::unordered_map<std::string, std::shared_ptr<const ParsedQuery>,
                     ViewHash, std::equal_to<>>
      query_memo_;
  std::deque<std::string_view> memo_fifo_;

  // Dispatch worker pool: the I/O thread produces into per-worker queues
  // (routed by fingerprint hash; last worker is the fast lane), each
  // worker consumes its own. search_workers_ is resolved at start().
  std::size_t search_workers_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_workers_{false};
  /// Admitted-but-not-yet-dispatched queries across all workers (the
  /// admission quota and the queue_depth stat/backpressure hint).
  std::atomic<std::size_t> total_pending_{0};
  /// Queries inside some worker's submit_batch right now. Workers raise
  /// this before lowering total_pending_ and push completions before
  /// lowering it, so drain_complete() (pending -> in_flight ->
  /// completions -> outboxes) can never observe a false "all done".
  std::atomic<std::size_t> total_in_flight_{0};

  // Completion queue: workers produce, I/O thread consumes.
  std::mutex completion_mutex_;
  std::deque<Completion> completions_;

  mutable std::mutex stats_mutex_;
  ServerStats stats_;
  std::vector<double> latency_window_;  ///< ring buffer, newest overwrites
  std::size_t latency_next_ = 0;
};

}  // namespace metacore::net
