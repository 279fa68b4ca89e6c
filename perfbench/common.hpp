// Small helpers shared by the perfbench tool's subcommands: argument
// parsing, file I/O, the monotonic clock, and quantiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace metacore {}

namespace perfbench {

// The tool calls into every layer of the library; spell them as
// core::, serve::, comm:: ... like the library does internally.
using namespace metacore;

/// CLOCK_MONOTONIC nanoseconds: the same clock Python's time.monotonic()
/// reads, so run.py can compare timestamps taken in different processes.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// `--key value` pairs plus bare `--flag`s.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument: " + key);
      }
      key = key.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing --" + key);
    }
    return it->second;
  }

  double num(const std::string& key, double fallback) const {
    return has(key) ? std::stod(str(key)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Non-empty lines of a text file.
inline std::vector<std::string> read_lines(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// One integer per line (query-table indices).
inline std::vector<std::size_t> read_indices(const std::string& path) {
  std::vector<std::size_t> out;
  for (const std::string& line : read_lines(path)) {
    out.push_back(static_cast<std::size_t>(std::stoull(line)));
  }
  return out;
}

/// Linear-interpolation quantile (q in [0,1]) of a sorted sample.
inline double sorted_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return sorted_quantile(v, q);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Writes a double with round-trip precision (JSON number).
inline std::string num_json(double x) {
  if (!std::isfinite(x)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

}  // namespace perfbench
