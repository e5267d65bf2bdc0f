#include "src/util/sim_time.h"

#include <cinttypes>
#include <cstdio>

namespace bsdtrace {

std::string Duration::ToString() const {
  char buf[64];
  const int64_t us = us_;
  if (us < 0) {
    return std::string("-").append(Duration::Micros(-us).ToString());
  }
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 "us", us);
  } else if (us < 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3gms", static_cast<double>(us) / 1e3);
  } else if (us < 60ll * 1'000'000) {
    std::snprintf(buf, sizeof(buf), "%.3gs", static_cast<double>(us) / 1e6);
  } else if (us < 3600ll * 1'000'000) {
    const int64_t whole_min = us / 60'000'000;
    const double rem_s = static_cast<double>(us - whole_min * 60'000'000) / 1e6;
    std::snprintf(buf, sizeof(buf), "%" PRId64 "m%.0fs", whole_min, rem_s);
  } else {
    const int64_t whole_h = us / 3'600'000'000ll;
    const double rem_m = static_cast<double>(us - whole_h * 3'600'000'000ll) / 60e6;
    std::snprintf(buf, sizeof(buf), "%" PRId64 "h%.0fm", whole_h, rem_m);
  }
  return buf;
}

std::string SimTime::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t=%.3fs", seconds());
  return buf;
}

}  // namespace bsdtrace
