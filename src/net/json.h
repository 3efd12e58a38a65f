#ifndef FAB_NET_JSON_H_
#define FAB_NET_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace fab::net {

/// A parsed JSON document node.
///
/// Recursive-descent parsed (ParseJson below), depth- and size-bounded so
/// a hostile request body cannot recurse the stack away or allocate
/// unboundedly. The serving layer only *reads* JSON through this type;
/// response JSON is hand-built with the util/string_util writers
/// (JsonNumber, EscapeJson), so there is no writer here.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& str() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member accessors for the common "required field" pattern:
  /// fail with InvalidArgument naming the key when absent or mistyped.
  [[nodiscard]] Result<std::string> GetString(const std::string& key) const;
  [[nodiscard]] Result<double> GetNumber(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected). `max_depth` bounds nesting; input size is
/// bounded by the HTTP layer's body limit before it ever reaches here.
[[nodiscard]] Result<JsonValue> ParseJson(const std::string& text, int max_depth = 64);

/// Renders `s` as a double-quoted JSON string literal (with escapes):
/// the util/string_util writer, kept reachable as net::EscapeJson for
/// the callers that spell it that way.
using fab::EscapeJson;

}  // namespace fab::net

#endif  // FAB_NET_JSON_H_
