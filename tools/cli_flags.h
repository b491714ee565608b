// Strict numeric flag values for the command-line tools.
//
// atoi/atof read "2x" as 2 and "abc" as 0, and accept a window of 1e300 s
// that overflows its nanosecond Time. These conversions must consume the
// whole argument (std::from_chars: no whitespace, no '+') and land in
// range; otherwise they print
//   <tool>: <flag> expects <what>, got '<value>'
// on stderr and return false, and the tool exits 2 (usage error).
#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <system_error>

#include "src/sim/time.h"

namespace g80211::cli {

inline bool reject_flag(const char* tool, const char* flag, const char* what,
                        const char* value) {
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool, flag, what,
               value);
  return false;
}

// An integer in [lo, hi]; `what` names that range in the message.
template <typename Int>
bool parse_integer(const char* tool, const char* flag, const char* value,
                   Int lo, Int hi, const char* what, Int& out) {
  const char* end = value + std::strlen(value);
  Int v{};
  const auto [stop, ec] = std::from_chars(value, end, v);
  if (ec != std::errc() || stop != end || v < lo || v > hi) {
    return reject_flag(tool, flag, what, value);
  }
  out = v;
  return true;
}

// A real number in [lo, hi]; `what` names that range in the message.
inline bool parse_number(const char* tool, const char* flag,
                         const char* value, double lo, double hi,
                         const char* what, double& out) {
  const char* end = value + std::strlen(value);
  double v = 0.0;
  const auto [stop, ec] = std::from_chars(value, end, v);
  // Negated comparisons also reject NaN.
  if (ec != std::errc() || stop != end || !(v >= lo) || !(v <= hi)) {
    return reject_flag(tool, flag, what, value);
  }
  out = v;
  return true;
}

// A count: an integer >= 1 that fits an int.
inline bool parse_count(const char* tool, const char* flag, const char* value,
                        int& out) {
  return parse_integer(tool, flag, value, 1, std::numeric_limits<int>::max(),
                       "an integer >= 1", out);
}

// A duration in seconds, converted to whole nanoseconds: at least 1 ns and
// below the int64 Time limit (~292 years).
inline bool parse_seconds(const char* tool, const char* flag,
                          const char* value, Time& out) {
  double s = 0.0;
  if (!parse_number(tool, flag, value, 1e-9, 9.2e9,
                    "seconds in [1e-9, 9.2e9]", s)) {
    return false;
  }
  out = static_cast<Time>(s * 1e9);
  return true;
}

}  // namespace g80211::cli
