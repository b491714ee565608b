// Document value model for world-description files.
//
// Both spec front-ends (the TOML subset and JSON — see parser.h) parse
// into this one tree, so schema validation (world_spec.h) is written once
// and error messages are identical whichever syntax the spec was written
// in. Every node remembers the 1-based source line it started on; all
// validation errors are SpecErrors anchored as "<source>:<line>: <what>",
// the compiler-style format editors and CI logs understand.
//
// Tables use std::map (ordered by key): spec handling iterates tables for
// canonical serialization and unknown-key reporting, and the repo-wide
// determinism rules ban iteration order that depends on a hash function.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace g80211::spec {

class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& source, int line, const std::string& what)
      : std::runtime_error(source + ":" + std::to_string(line) + ": " + what),
        line_(line) {}

  int line() const { return line_; }

 private:
  int line_;
};

struct Value {
  enum class Kind { kBool, kInt, kFloat, kString, kArray, kTable };

  Kind kind = Kind::kTable;
  int line = 1;  // 1-based line where this value starts in the source

  bool b = false;
  std::int64_t i = 0;
  double f = 0.0;
  std::string s;
  std::vector<Value> array;
  std::map<std::string, Value> table;

  bool is_table() const { return kind == Kind::kTable; }
  bool is_array() const { return kind == Kind::kArray; }
  // Numeric accessor: integers promote to double (TOML "1" and JSON "1.0"
  // mean the same rate); everything else is a caller-side type error.
  bool is_number() const { return kind == Kind::kInt || kind == Kind::kFloat; }
  double as_number() const {
    return kind == Kind::kInt ? static_cast<double>(i) : f;
  }
};

}  // namespace g80211::spec
