// Strict numeric flag values for the command-line tools.
//
// atoi/atof read "2x" as 2 and accept a window of 1e300 s that overflows
// its nanosecond Time. These conversions must consume the whole argument
// and land in range; otherwise they print
//   <tool>: <flag> expects <what>, got '<value>'
// on stderr and return false, and the tool exits 2 (usage error).
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/sim/time.h"

namespace g80211::cli {

inline bool reject_flag(const char* tool, const char* flag, const char* what,
                        const char* value) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool, flag, what,
               value);
  return false;
}

// A count: an integer >= 1 that fits an int.
inline bool parse_count(const char* tool, const char* flag, const char* value,
                        int& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < 1 ||
      v > std::numeric_limits<int>::max()) {
    return reject_flag(tool, flag, "an integer >= 1", value);
  }
  out = static_cast<int>(v);
  return true;
}

// A duration in seconds, converted to whole nanoseconds: at least 1 ns and
// below the int64 Time limit (~292 years).
inline bool parse_seconds(const char* tool, const char* flag,
                          const char* value, Time& out) {
  char* end = nullptr;
  errno = 0;
  const double ns = std::strtod(value, &end) * 1e9;
  // Negated comparisons also reject NaN.
  if (end == value || *end != '\0' || errno == ERANGE || !(ns >= 1.0) ||
      !(ns < 9.2233720368547758e18)) {
    return reject_flag(tool, flag, "seconds in [1e-9, 9.2e9)", value);
  }
  out = static_cast<Time>(ns);
  return true;
}

}  // namespace g80211::cli
