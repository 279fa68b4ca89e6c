// Closed-loop load generator: one thread and one loopback TCP connection
// to a running design server, with exactly one query in flight. It
// prewarms the server, sends one untimed warm-up query, reads the server's
// `stats` around every timed pass, checks every answer, and prints one
// JSON summary line.
//
// Inputs are files written by run.py from the workload seed: a query table
// (one DesignQuery JSON document per line) and index files naming which
// table rows to prewarm, warm up with, and stream during the timed phase.
#include <poll.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/protocol.hpp"
#include "robust/json.hpp"
#include "span.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kRequestTimeoutNs = 60'000'000'000;

struct Connection {
  int fd = -1;
  std::string inbuf;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send failed");
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Moves one complete line out of `buf` into `line`; false if none yet.
bool take_line(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buf, 0, nl);
  buf.erase(0, nl + 1);
  return true;
}

/// Reads into `conn.inbuf`; false when the peer closed or errored.
bool fill(Connection& conn) {
  char chunk[65536];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
  if (n > 0) {
    conn.inbuf.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  return n < 0 && (errno == EINTR || errno == EAGAIN);
}

/// Keeps the server's threads and this process together on one CPU, and
/// moves them to the next of `cpus` every `period_ns`. One CPU per moment
/// keeps every hand-off of a request on one CPU (no cross-CPU wake-ups);
/// moving through all of them spreads a run over every CPU's share of the
/// host, instead of resting on whichever one it started on.
class CpuRotation {
 public:
  CpuRotation() = default;
  CpuRotation(std::vector<int> cpus, int server_pid, std::int64_t period_ns)
      : cpus_(std::move(cpus)),
        server_pid_(server_pid),
        period_ns_(period_ns) {}

  /// Restarts the schedule at `now` on the first CPU.
  void start(std::int64_t now) {
    if (cpus_.empty()) return;
    next_ = 0;
    due_ns_ = now;
    poll(now);
  }

  /// Moves to the next CPU when its turn has come.
  void poll(std::int64_t now) {
    if (cpus_.empty() || now < due_ns_) return;
    pin(cpus_[next_]);
    next_ = (next_ + 1) % cpus_.size();
    due_ns_ = now + period_ns_;
  }

 private:
  void pin(int cpu) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (::sched_setaffinity(0, sizeof set, &set) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    // Threads the server starts later inherit their parent's CPU.
    const std::string tasks = "/proc/" + std::to_string(server_pid_) + "/task";
    for (const auto& entry : std::filesystem::directory_iterator(tasks)) {
      const int tid = std::stoi(entry.path().filename().string());
      ::sched_setaffinity(tid, sizeof set, &set);  // a thread may have exited
    }
  }

  std::vector<int> cpus_;
  int server_pid_ = 0;
  std::int64_t period_ns_ = 0;
  std::size_t next_ = 0;
  std::int64_t due_ns_ = 0;
};

/// Waits for the next complete line on `conn`, moving `rotation` along
/// while it waits. Throws "disconnected" when the server closes the
/// connection and "timeout" when the request was sent more than
/// kRequestTimeoutNs ago.
std::string await_line(Connection& conn, std::int64_t sent_ns,
                       CpuRotation* rotation = nullptr) {
  std::string line;
  while (!take_line(conn.inbuf, line)) {
    pollfd p{conn.fd, POLLIN, 0};
    ::poll(&p, 1, 100);
    const std::int64_t now = now_ns();
    if (rotation != nullptr) rotation->poll(now);
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) && !fill(conn)) {
      throw std::runtime_error("disconnected");
    }
    if (now - sent_ns > kRequestTimeoutNs) throw std::runtime_error("timeout");
  }
  return line;
}

/// Blocking request/response (setup and stats).
std::string roundtrip(Connection& conn, const std::string& payload) {
  const std::int64_t sent = now_ns();
  send_all(conn.fd, payload);
  return await_line(conn, sent);
}

struct PassResult {
  bool traced = false;
  std::string stats_before, stats_after;
  std::size_t attempted = 0, succeeded = 0, failed = 0;
  std::map<std::string, std::size_t> failures;
  double seconds = 0.0;    ///< nominal pass length
  double elapsed_s = 0.0;  ///< until the last answer arrived
  std::vector<double> latencies_ms;
  std::vector<double> done_s;  ///< answer time since pass start
  std::vector<bool> ok;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(const Args& args)
      : port_(static_cast<int>(args.num("port", 0))),
        table_(read_lines(args.str("queries"))),
        answers_(table_.size()),
        cold_check_(args.str("check") == "cold") {
    if (args.str("check") != "cold" && args.str("check") != "repeat") {
      throw std::invalid_argument("--check must be cold or repeat");
    }
    conn_.fd = connect_loopback(port_);
  }

  ~LoadGenerator() { ::close(conn_.fd); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends `indices` one at a time; returns the number of failed answers.
  std::size_t sequential(const std::vector<std::size_t>& indices) {
    std::size_t failed = 0;
    for (const std::size_t q : indices) {
      const std::string id = "s" + std::to_string(next_id_++);
      const std::string line = roundtrip(conn_, request(id, q));
      if (!check(id, q, line).empty()) ++failed;
    }
    return failed;
  }

  std::string stats() {
    const std::string line =
        roundtrip(conn_, "{\"id\":\"stats\",\"kind\":\"stats\"}\n");
    const net::WireResponse r = net::parse_wire_response(line);
    if (!r.ok()) throw std::runtime_error("stats request failed");
    return r.stats_json;
  }

  /// One closed-loop timed pass over the stream (continuing where the
  /// previous pass stopped). A traced pass records spans for every
  /// `trace_every`-th request; the rest go to the disabled recorder.
  PassResult pass(const std::vector<std::size_t>& stream, double seconds,
                  SpanRecorder& rec, std::size_t trace_every,
                  CpuRotation& rotation) {
    SpanRecorder untraced(false);
    PassResult out;
    out.traced = rec.enabled();
    out.seconds = seconds;
    out.stats_before = stats();
    rotation.start(now_ns());
    const std::int64_t start = now_ns();
    const auto stop = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last_done = start;
    bool aborted = false;
    while (last_done < stop) {
      const std::size_t q = stream[cursor_++ % stream.size()];
      const std::size_t n = next_id_++;
      const std::string id = std::to_string(n);
      const auto rid = static_cast<std::int64_t>(n);
      SpanRecorder& r = n % trace_every == 0 ? rec : untraced;
      const std::int64_t span_request = r.begin("client.request", rid, -1);
      std::int64_t sent = 0;
      {
        ScopedSpan s(r, "client.send", rid, span_request);
        sent = now_ns();
        send_all(conn_.fd, request(id, q));
      }
      ++out.attempted;
      const std::int64_t span_await =
          r.begin("client.await", rid, span_request);
      std::string line;
      try {
        line = await_line(conn_, sent, &rotation);
      } catch (const std::runtime_error& e) {
        aborted = true;
        ++out.failures[e.what()];
        break;
      }
      const std::int64_t done = now_ns();
      r.end(span_await);
      out.latencies_ms.push_back(ns_to_ms(done - sent));
      out.done_s.push_back(static_cast<double>(done - start) / 1e9);
      last_done = done;
      std::string failure;
      {
        ScopedSpan s(r, "client.check", static_cast<std::int64_t>(-1),
                     span_request);
        failure = check(id, q, line);
      }
      r.end(span_request);
      out.ok.push_back(failure.empty());
      if (failure.empty()) {
        ++out.succeeded;
      } else {
        ++out.failures[failure];
      }
    }
    for (const auto& [reason, n] : out.failures) out.failed += n;
    out.elapsed_s = static_cast<double>(last_done - start) / 1e9;
    if (aborted) broken_ = true;
    if (!aborted) out.stats_after = stats();
    return out;
  }

  bool broken() const { return broken_; }

 private:
  std::string request(const std::string& id, std::size_t q) const {
    return "{\"id\":\"" + id + "\",\"kind\":\"query\",\"query\":" +
           table_.at(q) + "}\n";
  }

  /// Empty when the answer is good, else a failure reason.
  std::string check(const std::string& id, std::size_t q,
                    const std::string& line) {
    const std::string prefix =
        "{\"id\":\"" + id + "\",\"status\":\"ok\",\"response\":";
    if (line.compare(0, prefix.size(), prefix) != 0 || line.back() != '}') {
      try {
        const net::WireResponse r = net::parse_wire_response(line);
        if (r.id != id) return "wrong_id";
        return r.status.empty() ? "malformed" : r.status;
      } catch (const std::exception&) {
        return "malformed";
      }
    }
    const std::string_view body(line.data() + prefix.size(),
                                line.size() - prefix.size() - 1);
    if (cold_check_) {
      const robust::JsonValue doc =
          robust::parse_json(std::string(body), "response");
      const robust::JsonValue* hits = doc.find("store_hits");
      const robust::JsonValue* evals = doc.find("evaluations");
      if (hits == nullptr || evals == nullptr || hits->number != 0.0 ||
          evals->number < 1.0) {
        return "cold_check";
      }
      return "";
    }
    std::string& first = answers_[q];
    if (first.empty()) {
      first.assign(body);
      return "";
    }
    return body == first ? "" : "mismatch";
  }

  int port_;
  std::vector<std::string> table_;
  std::vector<std::string> answers_;  ///< first answer per table row
  bool cold_check_;
  Connection conn_;
  std::size_t cursor_ = 0;
  std::size_t next_id_ = 0;
  bool broken_ = false;  ///< a pass lost a connection or timed out
};

/// Median and tail of a latency sample, with the count beyond the tail,
/// and a fixed ladder of percentiles for the record.
std::string latency_json(std::vector<double> ms, double tail_q) {
  std::sort(ms.begin(), ms.end());
  const double tail = sorted_quantile(ms, tail_q);
  const auto beyond = static_cast<std::size_t>(
      ms.end() - std::upper_bound(ms.begin(), ms.end(), tail));
  std::string ladder = "{";
  for (const char* q : {"0.9", "0.95", "0.99", "0.999"}) {
    if (ladder.size() > 1) ladder += ',';
    ladder += "\"" + std::string(q) + "\":" +
              num_json(sorted_quantile(ms, std::stod(q)));
  }
  return "\"samples\":" + std::to_string(ms.size()) +
         ",\"p50_ms\":" + num_json(sorted_quantile(ms, 0.5)) +
         ",\"tail_ms\":" + num_json(tail) +
         ",\"tail_beyond\":" + std::to_string(beyond) +
         ",\"percentiles\":" + ladder + "}";
}

/// The pass as a whole, plus the same figures per window: the pass is cut
/// into `windows` equal slices by answer time, one per CPU turn of a
/// rotating run, so run.py can average over windows that each caught the
/// host in a different state.
std::string pass_json(const PassResult& p, double tail_q,
                      std::size_t windows) {
  std::string failures = "{";
  for (const auto& [reason, n] : p.failures) {
    if (failures.size() > 1) failures += ',';
    failures += "\"" + reason + "\":" + std::to_string(n);
  }
  failures += "}";

  const double width = p.seconds / static_cast<double>(windows);
  // The last window also holds the answers that arrived after the pass's
  // deadline, so it spans until the last answer.
  const double last_width = std::max(
      width, p.elapsed_s - width * static_cast<double>(windows - 1));
  std::vector<std::vector<double>> ms(windows);
  std::vector<std::size_t> answered(windows, 0);
  for (std::size_t i = 0; i < p.latencies_ms.size(); ++i) {
    const auto w = std::min(windows - 1,
                            static_cast<std::size_t>(p.done_s[i] / width));
    ms[w].push_back(p.latencies_ms[i]);
    answered[w] += p.ok[i] ? 1 : 0;
  }
  std::string per_window = "[";
  for (std::size_t w = 0; w < windows; ++w) {
    if (w > 0) per_window += ',';
    const double span = w + 1 == windows ? last_width : width;
    per_window += "{" + latency_json(ms[w], tail_q) + ",\"qps\":" +
                  num_json(static_cast<double>(answered[w]) / span) + "}";
  }
  per_window += "]";

  return "{\"traced\":" + std::string(p.traced ? "true" : "false") +
         ",\"attempted\":" + std::to_string(p.attempted) +
         ",\"succeeded\":" + std::to_string(p.succeeded) +
         ",\"failed\":" + std::to_string(p.failed) +
         ",\"failures\":" + failures +
         ",\"elapsed_s\":" + num_json(p.elapsed_s) + "," +
         latency_json(p.latencies_ms, tail_q) +
         ",\"windows\":" + per_window +
         ",\"stats_before\":" +
         (p.stats_before.empty() ? "null" : p.stats_before) +
         ",\"stats_after\":" +
         (p.stats_after.empty() ? "null" : p.stats_after) + "}";
}

}  // namespace

/// `load --port P --queries F --check cold|repeat
///       [--prewarm F] [--warmup F] [--setup-only]
///       [--stream F --seconds S --tail Q --windows W
///        [--plan UT.. --trace-every N --trace-out F]
///        [--rotate-cpus C,C.. --server-pid P --rotate-every S]]`
///
/// `--plan` lists the timed passes, each `--seconds` long: U untraced, T
/// traced (client spans recorded for every N-th request, which keeps the
/// span file small on the 40k-query/s workloads). Alternating U and T
/// passes lets run.py report tracing overhead without a warm-up bias.
int run_load(const Args& args) {
  LoadGenerator gen(args);
  std::size_t setup_failed = 0;
  if (args.has("prewarm")) {
    setup_failed += gen.sequential(read_indices(args.str("prewarm")));
  }
  if (args.has("warmup")) {
    setup_failed += gen.sequential(read_indices(args.str("warmup")));
  }
  std::string out = "{\"setup_failed\":" + std::to_string(setup_failed);
  if (args.has("setup-only")) {
    std::cout << out << ",\"setup_done_s\":" << num_json(now_ns() / 1e9)
              << "}" << std::endl;
    return 0;
  }

  const std::vector<std::size_t> stream = read_indices(args.str("stream"));
  const double tail_q = args.num("tail", 0.99);
  const auto windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.num("windows", 1)));
  const double seconds = args.num("seconds", 1.0);
  const std::string plan = args.str("plan", "U");
  const auto trace_every = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.num("trace-every", 1)));
  SpanRecorder off(false), rec(true);
  CpuRotation rotation;
  if (args.has("rotate-cpus")) {
    std::vector<int> cpus;
    std::istringstream list(args.str("rotate-cpus"));
    for (std::string cpu; std::getline(list, cpu, ',');) {
      cpus.push_back(std::stoi(cpu));
    }
    rotation = CpuRotation(
        std::move(cpus), static_cast<int>(args.num("server-pid", 0)),
        static_cast<std::int64_t>(args.num("rotate-every", 1.0) * 1e9));
  }
  // The timed phase begins when the first pass reads its `stats` snapshot.
  out += ",\"setup_done_s\":" + num_json(now_ns() / 1e9);
  out += ",\"passes\":[";
  for (std::size_t i = 0; i < plan.size() && !gen.broken(); ++i) {
    if (i > 0) out += ',';
    out += pass_json(
        gen.pass(stream, seconds, plan[i] == 'T' ? rec : off, trace_every,
                 rotation),
        tail_q, windows);
  }
  rec.write_jsonl(args.str("trace-out", ""));
  out += "],\"spans\":" + rec.summary_json() + "}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace perfbench
