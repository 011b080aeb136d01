#include "json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace psnapbench::json {

const Value* Value::get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> document(std::string* error) {
    Value v;
    if (value(v)) {
      skip_ws();
      if (pos_ == s_.size()) return v;
      error_ = "trailing characters";
    }
    if (error != nullptr) {
      *error = error_ + " at offset " + std::to_string(pos_);
    }
    return std::nullopt;
  }

 private:
  bool fail(const char* why) {
    error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Value& out) {
    // Nesting is bounded so a hostile file cannot exhaust the stack.
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    bool ok = false;
    if (pos_ >= s_.size()) {
      ok = fail("unexpected end");
    } else if (s_[pos_] == '{') {
      ok = object(out);
    } else if (s_[pos_] == '[') {
      ok = array(out);
    } else if (s_[pos_] == '"') {
      out.kind = Value::Kind::kString;
      ok = string(out.string);
    } else if (s_[pos_] == 't' || s_[pos_] == 'f') {
      out.kind = Value::Kind::kBool;
      out.boolean = s_[pos_] == 't';
      ok = literal(out.boolean ? "true" : "false");
    } else if (s_[pos_] == 'n') {
      ok = literal("null");
    } else {
      ok = number(out);
    }
    --depth_;
    return ok;
  }

  bool number(Value& out) {
    const std::string buf(s_.substr(pos_, 64));
    char* end = nullptr;
    out.number = std::strtod(buf.c_str(), &end);
    if (end == buf.c_str()) return fail("bad value");
    pos_ += static_cast<std::size_t>(end - buf.c_str());
    out.kind = Value::Kind::kNumber;
    return true;
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char e = s_[pos_++];
      switch (e) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // Only the ASCII range is ever written by this repository.
          if (pos_ + 4 > s_.size()) return fail("bad escape");
          unsigned code = static_cast<unsigned>(
              std::strtoul(std::string(s_.substr(pos_, 4)).c_str(), nullptr,
                           16));
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          pos_ += 4;
          break;
        }
        default: out.push_back(e); break;
      }
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool array(Value& out) {
    out.kind = Value::Kind::kArray;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out.array.emplace_back();
      if (!value(out.array.back())) return false;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
      } else if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      } else {
        return fail("expected ',' or ']'");
      }
    }
  }

  bool object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++pos_;
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected key");
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      Value v;
      if (!value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
      } else if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      } else {
        return fail("expected ',' or '}'");
      }
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).document(error);
}

std::optional<Value> parse_file(const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string why;
  auto v = parse(buf.str(), &why);
  if (!v && error != nullptr) *error = path + ": " + why;
  return v;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(c));
      out += esc;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace psnapbench::json
