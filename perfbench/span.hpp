// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a layer (name, start, end,
// parent span, request id), kept in memory, and written out once at exit.
// A disabled recorder reads no clock and stores nothing, so untraced
// passes pay only a branch per span site.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  std::int64_t request = -1;  ///< request id shared by one request's spans
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; `parent == -2` takes the calling thread's innermost
  /// open span (explicit parents link work handed to pool threads).
  std::int64_t begin(const std::string& name, std::int64_t request,
                     std::int64_t parent = -2) {
    if (!enabled_) return -1;
    if (parent == -2) parent = stack().empty() ? -1 : stack().back();
    std::int64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      id = static_cast<std::int64_t>(spans_.size());
      spans_.push_back({name, now_ns(), 0, parent, request});
    }
    stack().push_back(id);
    return id;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    // Interleaved spans (several requests in flight on one thread) may
    // close out of order: drop this span wherever it sits in the stack.
    auto& open = stack();
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
      if (*it == id) {
        open.erase(std::next(it).base());
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  /// Duration of span `id` in ns (0 while it is open).
  double duration_ns(std::int64_t id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Span& s = spans_.at(static_cast<std::size_t>(id));
    return s.end_ns > 0 ? static_cast<double>(s.end_ns - s.start_ns) : 0.0;
  }

  /// Closed spans named `name`: durations in ns.
  std::vector<double> durations_ns(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns > 0) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Per span name: count, total and self time in ms. Self time is a
  /// span's duration minus the union of the intervals its children cover
  /// (children running in parallel on pool threads overlap).
  std::string summary_json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0 && s.end_ns > 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
      }
    }
    struct Agg {
      std::size_t count = 0;
      double total_ms = 0.0, self_ms = 0.0;
    };
    std::map<std::string, Agg> agg;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns == 0) continue;
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      Agg& a = agg[s.name];
      ++a.count;
      a.total_ms += ns_to_ms(s.end_ns - s.start_ns);
      a.self_ms += ns_to_ms(s.end_ns - s.start_ns - covered);
    }
    std::string out = "{";
    for (const auto& [name, a] : agg) {
      if (out.size() > 1) out += ',';
      out += "\"" + name + "\":{\"count\":" + std::to_string(a.count) +
             ",\"total_ms\":" + num_json(a.total_ms) +
             ",\"self_ms\":" + num_json(a.self_ms) + "}";
    }
    return out + "}";
  }

  /// One JSON object per span, in begin order.
  void write_jsonl(const std::string& path) const {
    if (!enabled_ || path.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  static std::vector<std::int64_t>& stack() {
    thread_local std::vector<std::int64_t> open;
    return open;
  }

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name,
             std::int64_t request = -1, std::int64_t parent = -2)
      : rec_(rec), id_(rec.begin(name, request, parent)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

}  // namespace perfbench
