#ifndef RDFQL_UTIL_CLOCK_H_
#define RDFQL_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "util/string_util.h"

namespace rdfql {

/// Monotonic nanoseconds (steady_clock): the one clock for durations,
/// deadlines and profiling timestamps.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Wall-clock milliseconds since the Unix epoch, for record timestamps.
inline uint64_t UnixNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// A duration as "850ns", "12.3us", "4.5ms" or "12.0s": the one formatter
/// behind EXPLAIN, trace trees, pipeline reports, the query-log text
/// report, the in-flight `.ps` table and rdfql_top.
inline std::string DurationString(uint64_t ns) {
  return ScaledString(ns, {"ns", "us", "ms", "s"});
}

}  // namespace rdfql

#endif  // RDFQL_UTIL_CLOCK_H_
