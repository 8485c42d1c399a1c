// Copyright 2026 The DOD Authors.
//
// A minimal recursive-descent JSON parser — just enough to validate and
// inspect the documents this project emits (trace files, metrics dumps,
// BENCH_*.json). Not a general-purpose library: numbers parse as double,
// \uXXXX escapes decode to UTF-8, no streaming.

#ifndef DOD_OBSERVABILITY_JSON_H_
#define DOD_OBSERVABILITY_JSON_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dod {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  // Parses a complete document (trailing whitespace allowed, nothing
  // else). Returns InvalidArgument with an offset on malformed input.
  static Result<JsonValue> Parse(std::string_view text);

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Accessors assume the matching type (DOD_CHECKed).
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  const std::map<std::string, JsonValue>& object() const;

  // Object conveniences: membership and lookup (null value when absent).
  bool Has(const std::string& key) const;
  const JsonValue& Get(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace dod

#endif  // DOD_OBSERVABILITY_JSON_H_
