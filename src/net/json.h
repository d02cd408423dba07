#ifndef VQLIB_NET_JSON_H_
#define VQLIB_NET_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace vqi {
namespace net {

/// A parsed JSON value. Dependency-free by design: the wire layer needs only
/// the subset of JSON that the /query API speaks (objects, arrays, numbers,
/// strings, booleans, null), so this is a small recursive-descent parser and
/// writer, not a general-purpose JSON library.
///
/// Numbers are stored as double. Every integer the API carries (graph ids,
/// counts, label values) is far below 2^53, so the round trip is exact.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Accessors are checked contract violations on kind mismatch; callers
  /// test is_*() first (the request decoder turns mismatches into
  /// kInvalidArgument before ever calling these).
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  std::vector<JsonValue>& array();

  /// Object field access. Find returns null when absent; insertion order is
  /// preserved in Dump so responses are byte-stable.
  const JsonValue* Find(std::string_view key) const;
  void Set(std::string key, JsonValue value);
  size_t object_size() const;
  /// Key/value pairs in insertion order (strict decoders enumerate these to
  /// reject unknown keys).
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const;

  void Append(JsonValue value);

  /// Serializes compactly (no whitespace), escaping per RFC 8259. Key order
  /// is insertion order, so equal values dump to equal bytes.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document. The whole input must be consumed (trailing
/// whitespace allowed); nesting is capped at 64 levels so adversarial wire
/// input cannot overflow the stack.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Escapes `text` as a JSON string literal including the surrounding quotes.
std::string JsonEscape(std::string_view text);

/// Appends JsonEscape(text) to `out`.
void AppendJsonString(std::string_view text, std::string* out);

/// Appends `value` as a JSON number: an integer of magnitude below 2^53 in
/// plain decimal, any other finite value as "%.17g", and NaN or an infinity
/// as null (JSON has neither). The wire layer's one number formatter:
/// JsonValue::Dump and the /query response writer both print through it, so
/// their bytes cannot drift.
void AppendJsonNumber(double value, std::string* out);

}  // namespace net
}  // namespace vqi

#endif  // VQLIB_NET_JSON_H_
