#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/protocol.hpp"
#include "robust/json.hpp"
#include "util/stats.hpp"

namespace metacore::net {

namespace {

// epoll user-data tags; connection ids start above the reserved values.
constexpr std::uint64_t kListenTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

constexpr std::size_t kLatencyWindow = 8192;
constexpr std::size_t kMaxWorkers = 128;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || value == 0) {
    throw std::invalid_argument(std::string(name) +
                                " must be a positive integer, got '" + env +
                                "'");
  }
  return static_cast<std::size_t>(value);
}

bool env_bool(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  const std::string value(env);
  if (value == "0") return false;
  if (value == "1") return true;
  throw std::invalid_argument(std::string(name) + " must be '0' or '1', got '" +
                              value + "'");
}

/// Per-wire-mode response builders: one call site per status, so the
/// admission path reads the same in both modes.
std::string error_envelope(serve::WireEncoding encoding, const std::string& id,
                           const std::string& message) {
  return encoding == serve::WireEncoding::Binary
             ? make_binary_error_response(id, message)
             : make_error_response(id, message);
}

std::string rejected_envelope(serve::WireEncoding encoding,
                              const std::string& id, const std::string& reason,
                              std::size_t queue_depth) {
  return encoding == serve::WireEncoding::Binary
             ? make_binary_rejected_response(id, reason, queue_depth)
             : make_rejected_response(id, reason, queue_depth);
}

std::string stats_envelope(serve::WireEncoding encoding, const std::string& id,
                           const std::string& stats_json) {
  return encoding == serve::WireEncoding::Binary
             ? make_binary_stats_response(id, stats_json)
             : make_stats_response(id, stats_json);
}

std::string design_envelope(serve::WireEncoding encoding, const std::string& id,
                            const std::string& body) {
  return encoding == serve::WireEncoding::Binary
             ? make_binary_design_response(id, body)
             : make_design_response(id, body);
}

}  // namespace

ServerConfig ServerConfig::from_env() {
  ServerConfig config;
  config.max_pending_queries =
      env_size("METACORE_SERVER_QUEUE", config.max_pending_queries);
  config.max_frame_bytes =
      env_size("METACORE_SERVER_MAX_FRAME", config.max_frame_bytes);
  config.search_workers =
      env_size("METACORE_SERVER_WORKERS", config.search_workers);
  if (config.search_workers > kMaxWorkers) {
    throw std::invalid_argument("METACORE_SERVER_WORKERS must be at most " +
                                std::to_string(kMaxWorkers) + ", got " +
                                std::to_string(config.search_workers));
  }
  config.enable_binary = env_bool("METACORE_SERVER_BINARY",
                                  config.enable_binary);
  return config;
}

std::string to_json(const ServerStats& stats) {
  std::ostringstream os;
  os << "{\"accepted_connections\":" << stats.accepted_connections
     << ",\"refused_connections\":" << stats.refused_connections
     << ",\"shed_connections\":" << stats.shed_connections
     << ",\"active_connections\":" << stats.active_connections
     << ",\"queries_received\":" << stats.queries_received
     << ",\"queries_served\":" << stats.queries_served
     << ",\"queries_rejected\":" << stats.queries_rejected
     << ",\"query_errors\":" << stats.query_errors
     << ",\"stats_requests\":" << stats.stats_requests
     << ",\"hello_requests\":" << stats.hello_requests
     << ",\"binary_connections\":" << stats.binary_connections
     << ",\"malformed_frames\":" << stats.malformed_frames
     << ",\"oversized_frames\":" << stats.oversized_frames
     << ",\"dropped_responses\":" << stats.dropped_responses
     << ",\"backpressure_pauses\":" << stats.backpressure_pauses
     << ",\"outbox_bytes\":" << stats.outbox_bytes
     << ",\"queue_depth\":" << stats.queue_depth
     << ",\"in_flight\":" << stats.in_flight << ",\"latency_p50_ms\":";
  robust::write_double(os, stats.latency_p50_ms);
  os << ",\"latency_p99_ms\":";
  robust::write_double(os, stats.latency_p99_ms);
  os << ",\"latency_samples\":" << stats.latency_samples
     << ",\"workers\":" << stats.workers
     << ",\"fast_lane_queries\":" << stats.fast_lane_queries
     << ",\"worker_depths\":[";
  for (std::size_t i = 0; i < stats.worker_depths.size(); ++i) {
    if (i > 0) os << ',';
    os << stats.worker_depths[i];
  }
  os << "],\"inline_answers\":" << stats.inline_answers
     << ",\"query_memo_hits\":" << stats.query_memo_hits << '}';
  return os.str();
}

struct DesignServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;
  /// The negotiated wire mode; Json until a hello switches it. Fixed for
  /// the life of the connection once any query/stats request is admitted,
  /// so in-flight completions always frame correctly.
  serve::WireEncoding encoding = serve::WireEncoding::Json;
  /// Decodes the stream after the binary switch (expects the client's
  /// "MCB1" preamble first).
  BinaryFrameDecoder binary_decoder;
  /// A query or stats request was handled; hello is no longer legal.
  bool saw_request = false;
  /// Response frames awaiting the socket; the front one may be partially
  /// written (outbox_offset bytes already sent).
  std::deque<std::string> outbox;
  std::size_t outbox_offset = 0;
  std::size_t outbox_bytes = 0;  ///< sum of the outbox frames' sizes
  bool epollout_armed = false;
  /// Not being read: the outbox reached the cap and has not drained yet.
  bool read_paused = false;

  explicit Connection(std::size_t max_frame_bytes)
      : decoder(max_frame_bytes),
        binary_decoder(max_frame_bytes, /*expect_preamble=*/true) {}
};

struct DesignServer::PendingQuery {
  std::uint64_t conn_id = 0;
  std::string request_id;
  std::shared_ptr<const ParsedQuery> parsed;
  serve::WireEncoding encoding = serve::WireEncoding::Json;
  std::chrono::steady_clock::time_point arrival;
};

struct DesignServer::Completion {
  std::uint64_t conn_id = 0;
  std::string envelope;
};

/// One dispatch worker: a FIFO queue the I/O thread routes into and a
/// thread draining it batch-at-a-time through submit_batch. All queries
/// on one evaluator fingerprint land on one worker (route_query), so
/// their arrival order — and with it coalescing and byte-exact
/// determinism — survives any worker count.
struct DesignServer::Worker {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<PendingQuery> queue;  ///< guarded by mutex
  std::size_t in_flight = 0;       ///< guarded by mutex
  std::thread thread;
};

DesignServer::DesignServer(std::shared_ptr<serve::DesignService> service,
                           ServerConfig config)
    : service_(std::move(service)), config_(std::move(config)) {
  if (!service_) {
    throw std::invalid_argument("DesignServer requires a DesignService");
  }
  latency_window_.reserve(kLatencyWindow);
  outbox_cap_ = config_.max_frame_bytes >
                        std::numeric_limits<std::size_t>::max() /
                            kOutboxCapFrames
                    ? std::numeric_limits<std::size_t>::max()
                    : kOutboxCapFrames * config_.max_frame_bytes;
  memo_capacity_ = service_->response_cache_capacity();
  query_memo_.reserve(memo_capacity_);
}

DesignServer::~DesignServer() {
  try {
    shutdown();
  } catch (...) {
    // Destructors must not throw; the sockets are closed regardless.
  }
}

void DesignServer::start() {
  if (started_.exchange(true)) {
    throw std::logic_error("DesignServer::start called twice");
  }
  // An abandoned client must never kill the process: without this, the
  // first write to a half-closed socket raises SIGPIPE. Writes also pass
  // MSG_NOSIGNAL, but ignoring process-wide covers every path.
  std::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("invalid bind address: " + config_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen on " + config_.bind_address + ":" +
                std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("epoll_create1/eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    io_stopped_ = false;
  }
  running_.store(true);
  search_workers_ = config_.search_workers != 0
                        ? std::min(config_.search_workers, kMaxWorkers)
                        : std::max(1u, std::thread::hardware_concurrency());
  // Index search_workers_ is the fast lane for cheap query kinds.
  workers_.clear();
  for (std::size_t w = 0; w < search_workers_ + 1; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, &w = *worker] { worker_loop(w); });
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

void DesignServer::request_shutdown() noexcept {
  draining_.store(true);
  wake_io();
}

void DesignServer::wake_io() noexcept {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; nothing to do on error.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void DesignServer::wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  stopped_cv_.wait(lock, [&] { return io_stopped_; });
}

void DesignServer::shutdown() {
  if (!started_.load()) return;
  request_shutdown();
  wait();
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stop_workers_.store(true);
  for (auto& worker : workers_) {
    {
      // Taking the lock orders the store against a worker mid-wait: the
      // notify cannot slip between its predicate check and its sleep.
      std::lock_guard<std::mutex> lock(worker->mutex);
    }
    worker->cv.notify_all();
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
  running_.store(false);
}

bool DesignServer::drain_complete() {
  if (total_pending_.load() != 0 || total_in_flight_.load() != 0) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    if (!completions_.empty()) return false;
  }
  for (const auto& [id, conn] : connections_) {
    if (!conn->outbox.empty()) return false;
  }
  return true;
}

void DesignServer::io_loop() {
  epoll_event events[64];
  bool listener_closed = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  for (;;) {
    const bool draining = draining_.load();
    if (draining && !listener_closed) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_closed = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.drain_flush_timeout_ms);
    }
    if (draining) {
      if (drain_complete()) break;
      // Admitted queries always run to completion, however long they
      // take: the flush timeout clocks only the final phase, where the
      // sole remaining work is clients reading their responses.
      bool work_remaining =
          total_pending_.load() != 0 || total_in_flight_.load() != 0;
      if (!work_remaining) {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        work_remaining = !completions_.empty();
      }
      if (work_remaining) {
        drain_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(config_.drain_flush_timeout_ms);
      } else if (std::chrono::steady_clock::now() >= drain_deadline) {
        // Clients that never read their final responses: force-close and
        // count what they left behind.
        std::size_t abandoned = 0;
        for (const auto& [id, conn] : connections_) {
          abandoned += conn->outbox.size();
        }
        if (abandoned > 0) {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.dropped_responses += abandoned;
        }
        break;
      }
    }
    const int timeout_ms = draining ? 20 : -1;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        std::uint64_t counter = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &counter, sizeof(counter));
        continue;
      }
      if (tag == kListenTag) {
        if (!listener_closed) accept_ready();
        continue;
      }
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_connection(tag, "hangup");
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        connection_writable(conn);
        if (connections_.find(tag) == connections_.end()) continue;
      }
      if (events[i].events & EPOLLIN) connection_readable(conn);
    }
    drain_completions();
    resume_drained_connections();
  }

  // Loop exited: close every socket.
  for (auto& [id, conn] : connections_) {
    ::close(conn->fd);
  }
  connections_.clear();
  paused_connections_.clear();
  outbox_bytes_.store(0);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.active_connections = 0;
  }
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    io_stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void DesignServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if ((errno == EMFILE || errno == ENFILE) && shed_connection()) continue;
      // Drained (EAGAIN), or a transient failure: the listener stays armed.
      return;
    }
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.refused_connections;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = kFirstConnId + next_conn_id_++;
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.accepted_connections;
    stats_.active_connections = connections_.size();
  }
}

bool DesignServer::shed_connection() {
  // Out of descriptors, accept4 fails while the connection stays queued,
  // and the level-triggered listener would wake the loop again at once.
  // The reserve fd makes room to accept the connection and close it: the
  // client reads end-of-stream instead of hanging, and the loop sleeps.
  if (reserve_fd_ < 0) {
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (reserve_fd_ < 0) return false;
  }
  ::close(reserve_fd_);
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;  // nothing queued after all
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.shed_connections;
  return true;
}

void DesignServer::connection_readable(Connection& conn) {
  const std::uint64_t id = conn.id;
  char buf[65536];
  while (!conn.read_paused) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (conn.encoding == serve::WireEncoding::Binary) {
        conn.binary_decoder.feed(buf, static_cast<std::size_t>(n));
      } else {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
      }
      if (!process_buffered_frames(conn)) return;
      continue;
    }
    if (n == 0) {
      close_connection(id, "eof");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_connection(id, "read error");
    return;
  }
}

bool DesignServer::process_buffered_frames(Connection& conn) {
  const std::uint64_t id = conn.id;
  // The mode can flip mid-buffer (a hello followed by binary frames in one
  // read), so re-check the encoding every iteration.
  for (;;) {
    if (conn.outbox_bytes >= outbox_cap_) {
      // A client that sends without reading: stop reading it until its
      // outbox drains (resume_drained_connections).
      conn.read_paused = true;
      paused_connections_.push_back(id);
      update_epoll(conn);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.backpressure_pauses;
      return true;
    }
    if (conn.encoding == serve::WireEncoding::Binary) {
      auto frame = conn.binary_decoder.next();
      if (!frame) return true;
      handle_binary_frame(conn, *frame);
    } else {
      auto frame = conn.decoder.next();
      if (!frame) return true;
      handle_frame(conn, *frame);
    }
    // Handling writes the response; a dead socket closes the connection
    // out from under us.
    if (connections_.find(id) == connections_.end()) return false;
  }
}

void DesignServer::resume_drained_connections() {
  for (std::size_t i = 0; i < paused_connections_.size();) {
    const std::uint64_t id = paused_connections_[i];
    auto it = connections_.find(id);
    if (it != connections_.end() && !it->second->outbox.empty()) {
      ++i;
      continue;
    }
    paused_connections_.erase(paused_connections_.begin() +
                              static_cast<std::ptrdiff_t>(i));
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    conn.read_paused = false;
    update_epoll(conn);
    // Frames the client sent before the pause come first; anything still
    // in the socket is read when epoll reports it.
    process_buffered_frames(conn);
  }
}

void DesignServer::connection_writable(Connection& conn) {
  flush_outbox(conn);
}

void DesignServer::handle_frame(Connection& conn, const Frame& frame) {
  if (frame.oversized) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.oversized_frames;
    }
    std::ostringstream msg;
    msg << "frame exceeds the " << config_.max_frame_bytes
        << "-byte limit (" << frame.dropped_bytes
        << " bytes dropped); the request id could not be recovered";
    enqueue_response(conn, make_error_response("", msg.str()));
    return;
  }

  // A query frame whose bytes after the id were parsed before: those bytes
  // alone fix the query, its key, fingerprint and route.
  std::optional<QueryFrameSplit> split;
  if (memo_capacity_ != 0) split = split_query_frame(frame.payload);
  if (split) {
    const auto hit = query_memo_.find(split->rest);
    if (hit != query_memo_.end()) {
      admit_query(conn, std::string(split->id), hit->second,
                  /*memo_hit=*/true);
      return;
    }
  }

  Request request;
  try {
    request = parse_request(frame.payload);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    }
    enqueue_response(
        conn, make_error_response(best_effort_request_id(frame.payload),
                                  e.what()));
    return;
  }

  if (request.kind == RequestKind::Hello) {
    handle_hello(conn, request);
    return;
  }
  if (request.kind == RequestKind::Stats) {
    answer_stats(conn, request.id);
    return;
  }
  std::shared_ptr<const ParsedQuery> parsed =
      prepare_query(std::move(request.query));
  if (split) remember_query(split->rest, parsed);
  admit_query(conn, std::move(request.id), std::move(parsed),
              /*memo_hit=*/false);
}

void DesignServer::handle_binary_frame(Connection& conn,
                                       const BinaryFrame& frame) {
  if (frame.corrupt) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    }
    enqueue_response(
        conn, make_binary_error_response(
                  "", frame.reason + "; the request id could not be recovered"));
    return;
  }

  Request request;
  try {
    request = decode_binary_request(frame.payload);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.malformed_frames;
    }
    enqueue_response(
        conn, make_binary_error_response(
                  best_effort_binary_request_id(frame.payload), e.what()));
    return;
  }
  if (request.kind == RequestKind::Stats) {
    answer_stats(conn, request.id);
    return;
  }
  admit_query(conn, std::move(request.id),
              prepare_query(std::move(request.query)), /*memo_hit=*/false);
}

bool DesignServer::handle_hello(Connection& conn, const Request& request) {
  const std::uint64_t id = conn.id;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.hello_requests;
  }
  if (conn.saw_request) {
    enqueue_response(
        conn, make_error_response(
                  request.id,
                  "hello must precede every query on the connection"));
    return connections_.find(id) != connections_.end();
  }
  const bool binary = request.wire == "binary" && config_.enable_binary;
  // The reply is always text (the client is still reading text frames);
  // on a grant the 4-byte stream preamble follows in the same write, and
  // everything after it is binary.
  std::string bytes;
  append_frame(bytes, make_hello_response(request.id,
                                          binary ? "binary" : "text"));
  if (binary) bytes.append(kBinaryPreamble.data(), kBinaryPreamble.size());
  push_outbox(conn, std::move(bytes));
  if (!flush_outbox(conn)) return false;
  if (connections_.find(id) == connections_.end()) return false;
  if (binary) {
    conn.encoding = serve::WireEncoding::Binary;
    // Bytes that arrived behind the hello in the same read already sit in
    // the text decoder; they are the start of the binary stream.
    const std::string leftover = conn.decoder.take_buffer();
    conn.binary_decoder.feed(leftover.data(), leftover.size());
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.binary_connections;
  }
  return true;
}

void DesignServer::answer_stats(Connection& conn,
                                const std::string& request_id) {
  conn.saw_request = true;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.stats_requests;
  }
  enqueue_response(conn,
                   stats_envelope(conn.encoding, request_id, stats_json()));
}

void DesignServer::admit_query(Connection& conn, std::string request_id,
                               std::shared_ptr<const ParsedQuery> parsed,
                               bool memo_hit) {
  const serve::WireEncoding encoding = conn.encoding;
  conn.saw_request = true;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries_received;
    if (memo_hit) ++stats_.query_memo_hits;
  }
  // Admission: only the I/O thread admits, so the check-then-admit on the
  // pending total cannot race with itself.
  const std::size_t depth = total_pending_.load();
  const char* reason = nullptr;
  if (draining_.load()) {
    reason = "draining";
  } else if (depth >= config_.max_pending_queries) {
    reason = "overloaded";
  }
  if (reason != nullptr) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.queries_rejected;
    }
    enqueue_response(conn,
                     rejected_envelope(encoding, request_id, reason, depth));
    return;
  }

  const auto arrival = std::chrono::steady_clock::now();
  if (parsed->route == search_workers_) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.fast_lane_queries;
  }
  Worker& worker = *workers_[parsed->route];
  if (answer_inline(conn, worker, request_id, *parsed, arrival)) return;
  PendingQuery pending;
  pending.arrival = arrival;
  pending.conn_id = conn.id;
  pending.request_id = std::move(request_id);
  pending.parsed = std::move(parsed);
  pending.encoding = encoding;
  total_pending_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.queue.push_back(std::move(pending));
  }
  worker.cv.notify_one();
}

std::size_t DesignServer::route_query(const serve::DesignQuery& query,
                                      const std::string& key,
                                      std::string& fingerprint) const {
  try {
    fingerprint = serve::query_fingerprint(query);
  } catch (...) {
    // Parseable but unconstructible: the search itself will surface the
    // error.
    fingerprint.clear();
  }
  // Cheap kinds take the fast lane (the extra worker at the end): an
  // archive probe must never wait behind a cold search.
  if (query.archive_only) return search_workers_;
  // One fingerprint -> one worker, so same-scope queries keep arrival
  // order at any worker count. Without a fingerprint any stable route
  // preserves ordering: the query bytes.
  return static_cast<std::size_t>(
      serve::fingerprint_hash(fingerprint.empty() ? key : fingerprint) %
      search_workers_);
}

std::shared_ptr<const DesignServer::ParsedQuery> DesignServer::prepare_query(
    serve::DesignQuery&& query) const {
  // The key and fingerprint are computed once, here: they route the
  // query, look up a cached answer, and ride to the worker.
  auto parsed = std::make_shared<ParsedQuery>();
  parsed->query = std::move(query);
  parsed->key = serve::to_json(parsed->query);
  parsed->route = route_query(parsed->query, parsed->key, parsed->fingerprint);
  return parsed;
}

void DesignServer::remember_query(
    std::string_view rest, const std::shared_ptr<const ParsedQuery>& parsed) {
  // Padded frames (whitespace, extra members) may not make an entry much
  // larger than its canonical key.
  if (rest.size() > 2 * parsed->key.size()) return;
  if (query_memo_.size() >= memo_capacity_) {
    query_memo_.erase(query_memo_.find(memo_fifo_.front()));
    memo_fifo_.pop_front();
  }
  const auto [it, inserted] = query_memo_.emplace(std::string(rest), parsed);
  if (inserted) memo_fifo_.push_back(it->first);
}

bool DesignServer::answer_inline(
    Connection& conn, Worker& worker, const std::string& request_id,
    const ParsedQuery& parsed, std::chrono::steady_clock::time_point arrival) {
  if (parsed.fingerprint.empty()) return false;  // no scope to validate
  {
    // Only this thread enqueues, so a worker idle here stays idle until
    // the query is answered: nothing admitted before it on its scope is
    // queued or running, and the cache reflects all of it.
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (!worker.queue.empty() || worker.in_flight != 0) return false;
  }
  {
    // A finished answer not yet written out goes first: same-scope
    // responses reach the connection in arrival order.
    std::lock_guard<std::mutex> lock(completion_mutex_);
    if (!completions_.empty()) return false;
  }
  const std::shared_ptr<const std::string> bytes =
      service_->lookup_encoded(parsed.key, parsed.fingerprint, conn.encoding);
  if (!bytes) return false;
  const std::string envelope =
      design_envelope(conn.encoding, request_id, *bytes);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.queries_served;
    ++stats_.inline_answers;
    record_latency(arrival, std::chrono::steady_clock::now());
  }
  enqueue_response(conn, envelope);
  return true;
}

void DesignServer::record_latency(
    std::chrono::steady_clock::time_point arrival,
    std::chrono::steady_clock::time_point ready) {
  const double ms =
      std::chrono::duration<double, std::milli>(ready - arrival).count();
  if (latency_window_.size() < kLatencyWindow) {
    latency_window_.push_back(ms);
  } else {
    latency_window_[latency_next_ % kLatencyWindow] = ms;
  }
  ++latency_next_;
  ++stats_.latency_samples;
}

void DesignServer::enqueue_response(Connection& conn,
                                    const std::string& envelope) {
  std::string framed;
  if (conn.encoding == serve::WireEncoding::Binary) {
    append_binary_frame(framed, envelope);
  } else {
    framed.reserve(envelope.size() + 1);
    append_frame(framed, envelope);
  }
  push_outbox(conn, std::move(framed));
  flush_outbox(conn);
}

void DesignServer::push_outbox(Connection& conn, std::string bytes) {
  conn.outbox_bytes += bytes.size();
  outbox_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  conn.outbox.push_back(std::move(bytes));
}

bool DesignServer::flush_outbox(Connection& conn) {
  while (!conn.outbox.empty()) {
    const std::string& front = conn.outbox.front();
    const ssize_t n =
        ::send(conn.fd, front.data() + conn.outbox_offset,
               front.size() - conn.outbox_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_offset += static_cast<std::size_t>(n);
      if (conn.outbox_offset == front.size()) {
        conn.outbox_bytes -= front.size();
        outbox_bytes_.fetch_sub(front.size(), std::memory_order_relaxed);
        conn.outbox.pop_front();
        conn.outbox_offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.epollout_armed) {
        conn.epollout_armed = true;
        update_epoll(conn);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET / anything else: the client is gone. Every frame
    // still in the outbox (including the half-written front) is lost.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.dropped_responses += conn.outbox.size();
    }
    close_connection(conn.id, "write error");
    return false;
  }
  if (conn.epollout_armed) {
    conn.epollout_armed = false;
    update_epoll(conn);
  }
  return true;
}

void DesignServer::update_epoll(Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.read_paused ? 0u : EPOLLIN) |
              (conn.epollout_armed ? EPOLLOUT : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void DesignServer::close_connection(std::uint64_t conn_id, const char*) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
  ::close(it->second->fd);
  outbox_bytes_.fetch_sub(it->second->outbox_bytes, std::memory_order_relaxed);
  connections_.erase(it);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.active_connections = connections_.size();
}

void DesignServer::drain_completions() {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    done.swap(completions_);
  }
  for (Completion& completion : done) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) {
      // The client disconnected while its query ran: the work still
      // completed (and fed the store/archive); only delivery was lost.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.dropped_responses;
      continue;
    }
    enqueue_response(*it->second, completion.envelope);
  }
}

void DesignServer::worker_loop(Worker& worker) {
  for (;;) {
    std::vector<PendingQuery> batch;
    {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.cv.wait(
          lock, [&] { return stop_workers_.load() || !worker.queue.empty(); });
      if (worker.queue.empty()) {
        if (stop_workers_.load()) return;
        continue;
      }
      // Drain everything queued on this worker: one submit_batch per
      // drain, so queries that piled up behind a slow batch are
      // deduplicated, coalesced, and fingerprint-grouped together by the
      // service — exactly the single-dispatcher semantics, per worker.
      batch.reserve(worker.queue.size());
      while (!worker.queue.empty()) {
        batch.push_back(std::move(worker.queue.front()));
        worker.queue.pop_front();
      }
      worker.in_flight = batch.size();
    }
    // in_flight rises before pending falls: the drain check (pending,
    // then in_flight) can never observe the handoff as "all done".
    total_in_flight_.fetch_add(batch.size());
    total_pending_.fetch_sub(batch.size());

    std::vector<serve::DesignService::EncodedQuery> items(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // The parsed query may be memoized, so it is copied, off the I/O
      // thread.
      const ParsedQuery& parsed = *batch[i].parsed;
      items[i].query = parsed.query;
      items[i].encoding = batch[i].encoding;
      items[i].key = parsed.key;
      items[i].fingerprint = parsed.fingerprint;
    }

    std::vector<std::string> envelopes(batch.size());
    std::size_t served = 0;
    std::size_t errors = 0;
    try {
      // The encoded path: the service answers with pre-serialized response
      // bodies (cached when the scope held still), spliced straight into
      // the per-mode envelope — no re-serialization on the hot path.
      const std::vector<std::shared_ptr<const std::string>> bodies =
          service_->submit_batch_encoded(items);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        envelopes[i] =
            design_envelope(batch[i].encoding, batch[i].request_id, *bodies[i]);
      }
      served = batch.size();
    } catch (...) {
      // A poisoned query fails the whole fan-out; isolate it by running
      // the batch sequentially so every other query still gets its
      // answer and only the bad one carries an error envelope.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        try {
          envelopes[i] = design_envelope(
              batch[i].encoding, batch[i].request_id,
              *service_->submit_encoded(items[i].query, items[i].encoding));
          ++served;
        } catch (const std::exception& e) {
          envelopes[i] = error_envelope(batch[i].encoding, batch[i].request_id,
                                        e.what());
          ++errors;
        }
      }
    }

    const auto now = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.queries_served += served;
      stats_.query_errors += errors;
      for (const PendingQuery& pending : batch) {
        record_latency(pending.arrival, now);
      }
    }
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        completions_.push_back(
            Completion{batch[i].conn_id, std::move(envelopes[i])});
      }
    }
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.in_flight = 0;
    }
    // Completions are queued before in_flight falls, so a drain check
    // that sees zero in flight is guaranteed to see the completions too.
    total_in_flight_.fetch_sub(batch.size());
    wake_io();
  }
}

ServerStats DesignServer::stats() const {
  ServerStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
    if (!latency_window_.empty()) {
      std::vector<double> window = latency_window_;
      snapshot.latency_p50_ms = util::percentile(window, 50.0);
      snapshot.latency_p99_ms = util::percentile(std::move(window), 99.0);
    }
  }
  snapshot.outbox_bytes = outbox_bytes_.load(std::memory_order_relaxed);
  snapshot.queue_depth = total_pending_.load();
  snapshot.in_flight = total_in_flight_.load();
  snapshot.workers = search_workers_;
  snapshot.worker_depths.reserve(workers_.size());
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    snapshot.worker_depths.push_back(worker->queue.size() +
                                     worker->in_flight);
  }
  return snapshot;
}

std::string DesignServer::stats_json() const {
  return "{\"server\":" + to_json(stats()) +
         ",\"service\":" + service_->stats_json() + "}";
}

}  // namespace metacore::net
