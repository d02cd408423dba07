#include "net/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"

namespace vqi {
namespace net {
namespace {

constexpr size_t kMaxDepth = 64;
// Container caps, enforced while parsing. Objects are capped hard because
// duplicate-key detection (JsonValue::Set's linear scan) is quadratic in
// member count — without the cap a 1MB body of ~100k tiny keys costs
// billions of compares. Arrays append in O(1) but get a generous cap as the
// same CPU-hygiene posture; both are far above anything the query API emits.
constexpr size_t kMaxObjectMembers = 1024;
constexpr size_t kMaxArrayElements = 1 << 16;

}  // namespace

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::bool_value() const {
  VQI_CHECK(is_bool()) << "JsonValue is not a bool";
  return bool_;
}

double JsonValue::number_value() const {
  VQI_CHECK(is_number()) << "JsonValue is not a number";
  return number_;
}

const std::string& JsonValue::string_value() const {
  VQI_CHECK(is_string()) << "JsonValue is not a string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  VQI_CHECK(is_array()) << "JsonValue is not an array";
  return array_;
}

std::vector<JsonValue>& JsonValue::array() {
  VQI_CHECK(is_array()) << "JsonValue is not an array";
  return array_;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  VQI_CHECK(is_object()) << "JsonValue is not an object";
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string key, JsonValue value) {
  VQI_CHECK(is_object()) << "JsonValue is not an object";
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

size_t JsonValue::object_size() const {
  VQI_CHECK(is_object()) << "JsonValue is not an object";
  return object_.size();
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::object_items()
    const {
  VQI_CHECK(is_object()) << "JsonValue is not an object";
  return object_;
}

void JsonValue::Append(JsonValue value) {
  VQI_CHECK(is_array()) << "JsonValue is not an array";
  array_.push_back(std::move(value));
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  AppendJsonString(text, &out);
  return out;
}

void AppendJsonString(std::string_view text, std::string* out) {
  out->push_back('"');
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double value, std::string* out) {
  char buf[32];
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    // Integers (the common case on this API) print without a decimal point,
    // so the output is byte-stable and curl-friendly.
    const std::to_chars_result printed =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(value));
    out->append(buf, printed.ptr);
  } else if (std::isfinite(value)) {
    // %.17g, not to_chars' shortest form, which would print non-integers
    // such as latency_ms with different bytes.
    const int length = std::snprintf(buf, sizeof(buf), "%.17g", value);
    out->append(buf, static_cast<size_t>(length));
  } else {
    *out += "null";  // JSON has no Inf/NaN
  }
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      AppendJsonNumber(number_, out);
      return;
    case Kind::kString:
      AppendJsonString(string_, out);
      return;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        array_[i].DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        AppendJsonString(object_[i].first, out);
        out->push_back(':');
        object_[i].second.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue value;
    VQI_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::ParseError("JSON: " + message + " at offset " +
                              std::to_string(pos_));
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

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        VQI_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view literal, JsonValue value,
                      JsonValue* out) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Error("invalid literal");
    }
    pos_ += literal.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("malformed number");
    *out = JsonValue::Number(value);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // Encode the code point as UTF-8. Surrogate pairs are not needed
          // by this API's data (label names are ASCII); a lone surrogate is
          // passed through as its 3-byte encoding.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    Consume('[');
    *out = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      if (out->array().size() >= kMaxArrayElements) {
        return Error("array has too many elements");
      }
      JsonValue element;
      VQI_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      out->Append(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    Consume('{');
    *out = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      VQI_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' in object");
      if (out->object_size() >= kMaxObjectMembers) {
        return Error("object has too many members");
      }
      JsonValue value;
      VQI_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace net
}  // namespace vqi
