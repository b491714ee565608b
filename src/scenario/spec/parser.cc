#include "src/scenario/spec/parser.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace g80211::spec {
namespace {

// Character cursor with line tracking, shared by both front-ends. The
// front-ends differ only in grammar: TOML is statement-oriented (a value
// must be followed by end-of-line), JSON is free-form.
class Scanner {
 public:
  Scanner(const std::string& text, const std::string& source)
      : text_(text), source_(source) {}

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return eof() ? '\0' : text_[pos_]; }
  char get() {
    const char c = text_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  int line() const { return line_; }
  const std::string& source() const { return source_; }

  [[noreturn]] void fail(const std::string& what, int at_line = 0) const {
    throw SpecError(source_, at_line > 0 ? at_line : line_, what);
  }

  // Skip spaces and tabs (not newlines) and a trailing '#' comment.
  void skip_inline() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r')) get();
    if (!eof() && peek() == '#') {
      while (!eof() && peek() != '\n') get();
    }
  }

  // Skip all whitespace, newlines and '#' comments.
  void skip_all(bool hash_comments) {
    for (;;) {
      while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\r' ||
                        peek() == '\n')) {
        get();
      }
      if (hash_comments && !eof() && peek() == '#') {
        while (!eof() && peek() != '\n') get();
        continue;
      }
      return;
    }
  }

  std::string parse_quoted_string() {
    const int at = line_;
    get();  // opening quote
    std::string out;
    for (;;) {
      if (eof()) fail("unterminated string", at);
      const char c = get();
      if (c == '"') return out;
      if (c == '\n') fail("unterminated string", at);
      if (c == '\\') {
        if (eof()) fail("unterminated string", at);
        const char e = get();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case '/': out += '/'; break;
          default:
            fail(std::string("unsupported escape '\\") + e + "' in string");
        }
      } else {
        out += c;
      }
    }
  }

  // Integer or float. `token` must look like a number (leading digit,
  // '+', '-' or '.').
  Value parse_number() {
    const int at = line_;
    std::string tok;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                      peek() == '+' || peek() == '-' || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '_')) {
      const char c = get();
      if (c != '_') tok += c;  // TOML allows 1_000 separators
    }
    Value v;
    v.line = at;
    const bool floaty = tok.find_first_of(".eE") != std::string::npos;
    const char* begin = tok.c_str();
    char* end = nullptr;
    errno = 0;
    if (floaty) {
      v.kind = Value::Kind::kFloat;
      v.f = std::strtod(begin, &end);
    } else {
      v.kind = Value::Kind::kInt;
      v.i = std::strtoll(begin, &end, 10);
    }
    if (tok.empty() || end != begin + tok.size()) {
      fail("malformed number '" + tok + "'", at);
    }
    // strtoll/strtod saturate (or flush to zero) on ERANGE; a saturated
    // seed or an infinite duration would silently become another value.
    if (errno == ERANGE || (floaty && !std::isfinite(v.f))) {
      fail("number '" + tok + "' out of range", at);
    }
    return v;
  }

 private:
  const std::string& text_;
  std::string source_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

bool is_bare_key_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '-';
}

// ---------------------------------------------------------------------------
// TOML subset
// ---------------------------------------------------------------------------

class TomlParser {
 public:
  TomlParser(const std::string& text, const std::string& source)
      : sc_(text, source) {}

  Value parse() {
    Value root;
    root.kind = Value::Kind::kTable;
    Value* current = &root;
    for (;;) {
      sc_.skip_all(/*hash_comments=*/true);
      if (sc_.eof()) return root;
      if (sc_.peek() == '[') {
        current = parse_header(root);
      } else {
        parse_pair(*current);
      }
    }
  }

 private:
  // `[name]` or `[[name]]`; returns the table statements now target.
  Value* parse_header(Value& root) {
    const int at = sc_.line();
    sc_.get();  // '['
    const bool array_of_tables = sc_.peek() == '[';
    if (array_of_tables) sc_.get();
    const std::string name = bare_key(at);
    if (sc_.peek() != ']') sc_.fail("expected ']' after table name", at);
    sc_.get();
    if (array_of_tables) {
      if (sc_.peek() != ']') sc_.fail("expected ']]' after table name", at);
      sc_.get();
    }
    end_of_statement(at);

    auto it = root.table.find(name);
    if (array_of_tables) {
      if (it == root.table.end()) {
        Value arr;
        arr.kind = Value::Kind::kArray;
        arr.line = at;
        it = root.table.emplace(name, std::move(arr)).first;
      } else if (!it->second.is_array()) {
        sc_.fail("'" + name + "' is already defined as a value", at);
      }
      Value entry;
      entry.kind = Value::Kind::kTable;
      entry.line = at;
      it->second.array.push_back(std::move(entry));
      return &it->second.array.back();
    }
    if (it != root.table.end()) {
      sc_.fail("table '" + name + "' defined twice", at);
    }
    Value tbl;
    tbl.kind = Value::Kind::kTable;
    tbl.line = at;
    return &root.table.emplace(name, std::move(tbl)).first->second;
  }

  void parse_pair(Value& table) {
    const int at = sc_.line();
    const std::string key = bare_key(at);
    sc_.skip_inline();
    if (sc_.peek() != '=') sc_.fail("expected '=' after key '" + key + "'", at);
    sc_.get();
    sc_.skip_inline();
    Value v = parse_value();
    end_of_statement(at);
    if (table.table.count(key) != 0) {
      sc_.fail("key '" + key + "' defined twice", at);
    }
    table.table.emplace(key, std::move(v));
  }

  Value parse_value() {
    // Inside arrays newlines are allowed (multi-line arrays); skip_all is
    // only reached from there — scalars use the statement-level skips.
    const char c = sc_.peek();
    const int at = sc_.line();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.line = at;
      v.s = sc_.parse_quoted_string();
      return v;
    }
    if (c == '[') {
      sc_.get();
      Value v;
      v.kind = Value::Kind::kArray;
      v.line = at;
      for (;;) {
        sc_.skip_all(/*hash_comments=*/true);
        if (sc_.eof()) sc_.fail("unterminated array", at);
        if (sc_.peek() == ']') {
          sc_.get();
          return v;
        }
        v.array.push_back(parse_value());
        sc_.skip_all(/*hash_comments=*/true);
        if (sc_.peek() == ',') {
          sc_.get();
        } else if (sc_.peek() != ']') {
          sc_.fail("expected ',' or ']' in array", at);
        }
      }
    }
    if (c == 't' || c == 'f') {
      const std::string word = bare_key(at);
      Value v;
      v.line = at;
      v.kind = Value::Kind::kBool;
      if (word == "true") {
        v.b = true;
      } else if (word == "false") {
        v.b = false;
      } else {
        sc_.fail("unknown value '" + word + "'", at);
      }
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '+' ||
        c == '-' || c == '.') {
      return sc_.parse_number();
    }
    sc_.fail("expected a value");
  }

  std::string bare_key(int at) {
    std::string key;
    while (!sc_.eof() && is_bare_key_char(sc_.peek())) key += sc_.get();
    if (key.empty()) sc_.fail("expected a name", at);
    return key;
  }

  // After a statement only a comment may follow on the line.
  void end_of_statement(int at) {
    sc_.skip_inline();
    if (!sc_.eof() && sc_.peek() != '\n') {
      sc_.fail("unexpected text after statement", at);
    }
  }

  Scanner sc_;
};

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

class JsonParser {
 public:
  JsonParser(const std::string& text, const std::string& source)
      : sc_(text, source) {}

  Value parse() {
    sc_.skip_all(/*hash_comments=*/false);
    Value v = parse_value();
    sc_.skip_all(/*hash_comments=*/false);
    if (!sc_.eof()) sc_.fail("trailing text after document");
    return v;
  }

 private:
  Value parse_value() {
    const char c = sc_.peek();
    const int at = sc_.line();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Value v;
      v.kind = Value::Kind::kString;
      v.line = at;
      v.s = sc_.parse_quoted_string();
      return v;
    }
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') sc_.fail("null is not a valid spec value");
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' ||
        c == '+') {
      return sc_.parse_number();
    }
    sc_.fail("expected a value");
  }

  Value parse_object() {
    const int at = sc_.line();
    sc_.get();  // '{'
    Value v;
    v.kind = Value::Kind::kTable;
    v.line = at;
    sc_.skip_all(false);
    if (sc_.peek() == '}') {
      sc_.get();
      return v;
    }
    for (;;) {
      sc_.skip_all(false);
      if (sc_.peek() != '"') sc_.fail("expected a quoted object key");
      const int key_line = sc_.line();
      const std::string key = sc_.parse_quoted_string();
      sc_.skip_all(false);
      if (sc_.peek() != ':') sc_.fail("expected ':' after key '" + key + "'");
      sc_.get();
      sc_.skip_all(false);
      if (v.table.count(key) != 0) {
        sc_.fail("key '" + key + "' defined twice", key_line);
      }
      v.table.emplace(key, parse_value());
      sc_.skip_all(false);
      const char c = sc_.peek();
      if (c == ',') {
        sc_.get();
      } else if (c == '}') {
        sc_.get();
        return v;
      } else {
        sc_.fail("expected ',' or '}' in object", at);
      }
    }
  }

  Value parse_array() {
    const int at = sc_.line();
    sc_.get();  // '['
    Value v;
    v.kind = Value::Kind::kArray;
    v.line = at;
    sc_.skip_all(false);
    if (sc_.peek() == ']') {
      sc_.get();
      return v;
    }
    for (;;) {
      sc_.skip_all(false);
      v.array.push_back(parse_value());
      sc_.skip_all(false);
      const char c = sc_.peek();
      if (c == ',') {
        sc_.get();
      } else if (c == ']') {
        sc_.get();
        return v;
      } else {
        sc_.fail("expected ',' or ']' in array", at);
      }
    }
  }

  Value parse_bool() {
    const int at = sc_.line();
    std::string word;
    while (!sc_.eof() && std::isalpha(static_cast<unsigned char>(sc_.peek()))) {
      word += sc_.get();
    }
    Value v;
    v.kind = Value::Kind::kBool;
    v.line = at;
    if (word == "true") {
      v.b = true;
    } else if (word == "false") {
      v.b = false;
    } else {
      sc_.fail("unknown value '" + word + "'", at);
    }
    return v;
  }

  Scanner sc_;
};

}  // namespace

Value parse_toml(const std::string& text, const std::string& source) {
  return TomlParser(text, source).parse();
}

Value parse_json(const std::string& text, const std::string& source) {
  return JsonParser(text, source).parse();
}

Value parse_text(const std::string& text, const std::string& source) {
  for (const char c : text) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '{') return parse_json(text, source);
    break;
  }
  return parse_toml(text, source);
}

Value parse_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::runtime_error("spec: cannot open " + path);
  }
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return parse_text(text, path);
}

}  // namespace g80211::spec
