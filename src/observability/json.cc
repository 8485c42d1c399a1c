// Copyright 2026 The DOD Authors.

#include "observability/json.h"

#include <cctype>
#include <cstdlib>

namespace dod {

double JsonValue::number_value() const {
  DOD_CHECK(is_number());
  return number_;
}

const std::string& JsonValue::string_value() const {
  DOD_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  DOD_CHECK(is_array());
  return array_;
}

const std::map<std::string, JsonValue>& JsonValue::object() const {
  DOD_CHECK(is_object());
  return object_;
}

bool JsonValue::Has(const std::string& key) const {
  return is_object() && object_.count(key) > 0;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  static const JsonValue kNull;
  if (!is_object()) return kNull;
  const auto it = object_.find(key);
  return it == object_.end() ? kNull : it->second;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    DOD_RETURN_IF_ERROR(ParseValue(&value));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type_ = JsonValue::Type::kString;
      return ParseString(&out->string_);
    }
    if (ConsumeWord("null")) {
      out->type_ = JsonValue::Type::kNull;
      return Status::Ok();
    }
    if (ConsumeWord("true") || ConsumeWord("false")) {
      out->type_ = JsonValue::Type::kBool;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out) {
    out->type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      DOD_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      DOD_RETURN_IF_ERROR(ParseValue(&value));
      out->object_[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume('}')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      DOD_RETURN_IF_ERROR(ParseValue(&value));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::Ok();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape digit");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // this project never emits them).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = value;
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace dod
