#ifndef SDMS_PERFBENCH_UTIL_H_
#define SDMS_PERFBENCH_UTIL_H_

// Measurement plumbing of the repository benchmark: clocks, sample
// statistics, process resource readings, the in-memory span recorder
// behind --trace 1, and a small JSON reader for the profile trees and
// metric dumps the system emits.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sdms::perfbench {

/// Steady-clock microseconds (same epoch as QueryContext::NowMicros).
int64_t NowMicros();

/// Process CPU time (user + system), microseconds.
int64_t ProcessCpuMicros();

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Guest steal time of the whole machine since boot, seconds
/// (/proc/stat); 0 when unreadable.
double StealSeconds();

/// Sum of regular file sizes under `dir`, recursively.
uint64_t DirBytes(const std::string& dir);

/// A bag of measurements with order statistics.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Sum() const;
  double Mean() const;
  /// Linear-interpolation quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Records spans (name, start, end, parent, request id) in memory while
/// enabled and writes them as Chrome-trace JSON. Spans nest per thread:
/// a span's parent is the innermost open span of the same thread,
/// unless a parent is given explicitly.
class Tracer {
 public:
  static Tracer& Instance();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  struct Span {
    std::string name;
    int64_t start_us = 0;
    int64_t end_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request_id = 0;
    uint32_t tid = 0;
    /// Extra JSON members for the event's args (already encoded,
    /// without surrounding braces), e.g. "\"profile\":{...}".
    std::string args_json;
  };

  /// Opens a span; returns its id (0 when disabled).
  uint64_t Begin(const std::string& name, uint64_t request_id = 0);
  /// Closes span `id` (the innermost open span of this thread).
  void End(uint64_t id, std::string args_json = "");

  size_t span_count();
  /// Writes {"traceEvents":[...]} to `path`.
  bool WriteChromeTrace(const std::string& path);

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Span> open_;
  std::vector<Span> done_;
};

/// RAII span around one call into the system.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, uint64_t request_id = 0)
      : id_(Tracer::Instance().Begin(name, request_id)) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::Instance().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

/// Minimal JSON document model (objects, arrays, strings, numbers,
/// booleans, null) — enough for QueryProfile::ToJson and
/// MetricsRegistry::DumpJson output.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json* Find(const std::string& key) const;
  double NumberOr(const std::string& key, double fallback) const;
};

/// Parses `text`; false on malformed input.
bool ParseJson(const std::string& text, Json* out);

/// Escapes `s` for a JSON string body.
std::string JsonEscape(const std::string& s);

/// Formats a double with all significant digits.
std::string FmtNum(double v);

}  // namespace sdms::perfbench

#endif  // SDMS_PERFBENCH_UTIL_H_
