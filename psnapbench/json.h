// The little JSON bench_psnap needs: reading JsonReport files and
// BENCHMARK.json for --compare, and writing the result line and spans.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace psnapbench::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  // The member named `key` of an object; nullptr when absent.
  const Value* get(std::string_view key) const;
};

// Parses one JSON document; nullopt (with a reason in *error) on any
// syntax error or trailing garbage.
std::optional<Value> parse(std::string_view text, std::string* error);
std::optional<Value> parse_file(const std::string& path, std::string* error);

// A JSON string literal for `s`, quotes included.
std::string quote(std::string_view s);
// A number with every digit a double carries ("%.17g").
std::string number(double v);

}  // namespace psnapbench::json
