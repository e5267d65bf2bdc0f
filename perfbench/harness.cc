#include "perfbench/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include <unistd.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace perfbench {

namespace {

// Shortest round-tripping rendering of a double (every measured digit).
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string RunResult::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += Quote(metrics[i].name) + ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1.0;
  }
  long kb = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void Quiesce() {
  sync();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

void DigestSink::Mix(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 1099511628211ull;
  }
}

void DigestSink::Append(const bsdtrace::TraceRecord& r) {
  Mix(static_cast<uint64_t>(r.type));
  Mix(static_cast<uint64_t>(r.time.micros()));
  Mix(r.open_id);
  Mix(r.file_id);
  Mix(r.user_id);
  Mix(static_cast<uint64_t>(r.mode));
  Mix(r.size);
  Mix(r.position);
  Mix(r.seek_from);
  Mix(r.seek_to);
  ++records_;
}

uint64_t FileDigest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return 0;
  }
  uint64_t hash = 14695981039346656037ull;
  std::vector<unsigned char> buf(1 << 16);
  size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    for (size_t i = 0; i < n; ++i) {
      hash ^= buf[i];
      hash *= 1099511628211ull;
    }
  }
  std::fclose(f);
  return hash;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int parent) : tracer_(tracer) {
  if (tracer_ != nullptr && tracer_->enabled) {
    id_ = tracer_->Begin(name, parent);
  }
}

Tracer::Scope::~Scope() { End(); }

void Tracer::Scope::End() {
  if (id_ >= 0 && !ended_) {
    tracer_->End(id_);
    ended_ = true;
  }
}

void Tracer::Scope::Count(const char* key, uint64_t value) {
  if (id_ >= 0) {
    tracer_->Count(id_, key, value);
  }
}

int Tracer::Begin(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.run = run;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Count(int id, const char* key, uint64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].counts.emplace_back(key, value);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::string counts;
    for (const auto& [key, value] : s.counts) {
      counts += (counts.empty() ? "" : ", ") + Quote(key) + ": " + std::to_string(value);
    }
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": %s, \"run\": %d, \"parent\": %d, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"counts\": {%s}}\n",
                 i, Quote(s.name).c_str(), s.run, s.parent,
                 static_cast<long long>(s.start_ns - origin_ns_),
                 static_cast<long long>(s.end_ns - origin_ns_), counts.c_str());
  }
  return std::fclose(f) == 0;
}

double UnattributedShare(const std::vector<Tracer::Span>& spans, const std::string& root) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> shares;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    const int64_t total = s.end_ns - s.start_ns;
    if (s.name != root || total <= 0) {
      continue;
    }
    // Union of the child intervals (concurrent children overlap).
    std::vector<std::pair<int64_t, int64_t>> iv = children[static_cast<int>(i)];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (const auto& [a, b] : iv) {
      const int64_t lo = std::max(a, s.start_ns);
      const int64_t hi = std::min(b, s.end_ns);
      if (hi <= lo) {
        continue;
      }
      if (lo > cur_end) {
        covered += std::max<int64_t>(0, cur_end - cur_start);
        cur_start = lo;
        cur_end = hi;
      } else {
        cur_end = std::max(cur_end, hi);
      }
    }
    covered += std::max<int64_t>(0, cur_end - cur_start);
    shares.push_back(static_cast<double>(total - covered) / static_cast<double>(total));
  }
  return Median(shares);
}

}  // namespace perfbench
