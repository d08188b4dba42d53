#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

namespace sdms::perfbench {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuMicros() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<int64_t>(tv.tv_sec) * 1'000'000 + tv.tv_usec;
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (uint64_t& x : v) {
    if (!(in >> x)) return 0.0;
  }
  long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double Samples::Sum() const {
  double s = 0.0;
  for (double x : v_) s += x;
  return s;
}

double Samples::Mean() const {
  return v_.empty() ? 0.0 : Sum() / static_cast<double>(v_.size());
}

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  double pos = q * static_cast<double>(s.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, s.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1);
  return tid;
}

thread_local std::vector<uint64_t> tls_open_spans;

}  // namespace

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::Begin(const std::string& name, uint64_t request_id) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.start_us = NowMicros();
  s.tid = ThreadOrdinal();
  s.parent = tls_open_spans.empty() ? 0 : tls_open_spans.back();
  s.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  s.id = next_id_++;
  if (s.request_id == 0 && s.parent != 0) {
    auto it = open_.find(s.parent);
    if (it != open_.end()) s.request_id = it->second.request_id;
  }
  uint64_t id = s.id;
  open_.emplace(id, std::move(s));
  tls_open_spans.push_back(id);
  return id;
}

void Tracer::End(uint64_t id, std::string args_json) {
  int64_t end = NowMicros();
  if (!tls_open_spans.empty() && tls_open_spans.back() == id) {
    tls_open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  Span s = std::move(it->second);
  open_.erase(it);
  s.end_us = end;
  s.args_json = std::move(args_json);
  done_.push_back(std::move(s));
}

size_t Tracer::span_count() {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const Span& s : done_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                 "\"pid\":1,\"tid\":%u,\"args\":{\"span_id\":%llu,"
                 "\"parent\":%llu,\"request_id\":%llu%s%s}}",
                 first ? "" : ",", JsonEscape(s.name).c_str(),
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.end_us - s.start_us), s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 s.args_json.empty() ? "" : ",", s.args_json.c_str());
    first = false;
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// JSON

const Json* Json::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Json::NumberOr(const std::string& key, double fallback) const {
  const Json* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->num : fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool ParseDocument(Json* out) {
    if (!ParseValue(out, 0)) return false;
    SkipSpace();
    return pos_ == s_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = std::stoul(s_.substr(pos_, 4), nullptr, 16);
          pos_ += 4;
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: out->push_back(e);
      }
    }
    return false;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > 256) return false;
    SkipSpace();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->type = Json::Type::kObject;
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(&out->obj[key], depth + 1)) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      out->type = Json::Type::kArray;
      if (Consume(']')) return true;
      do {
        out->arr.emplace_back();
        if (!ParseValue(&out->arr.back(), depth + 1)) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      out->type = Json::Type::kString;
      return ParseString(&out->str);
    }
    if (s_.compare(pos_, 4, "true") == 0 || s_.compare(pos_, 5, "false") == 0) {
      out->type = Json::Type::kBool;
      out->b = s_[pos_] == 't';
      pos_ += out->b ? 4 : 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out->type = Json::Type::kNull;
      return true;
    }
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    out->num = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Json::Type::kNumber;
    pos_ += static_cast<size_t>(end - begin);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, Json* out) {
  *out = Json{};
  return JsonParser(text).ParseDocument(out);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string FmtNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace sdms::perfbench
