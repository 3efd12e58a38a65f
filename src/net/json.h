#ifndef FAB_NET_JSON_H_
#define FAB_NET_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/string_util.h"

namespace fab::net {

/// A parsed JSON document node.
///
/// ParseJson below builds it on the JsonReader, so the depth bound and
/// the number grammar are the reader's. The serving layer only *reads*
/// JSON; response JSON is hand-built with the util/string_util writers
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
  friend class JsonTreeBuilder;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// A pull reader over one complete in-memory JSON document: the one
/// lexer under ParseJson and the /predict body reader. The caller walks
/// the document value by value; the reader checks what lies between the
/// values (commas, colons, brackets) and bounds the nesting, so a hostile
/// body cannot recurse the stack away. It reads the bytes in place and
/// allocates nothing of its own. Every error is InvalidArgument ending
/// "at byte N", so a 400 response alone locates a malformed request.
///
/// Numbers follow RFC 8259 §6 as the original strtod lexer read them
/// (leading zeros, a bare '.' fraction and a trailing '.' still pass),
/// converted by std::from_chars: correctly rounded, locale-free, and
/// without strtod's leading '+'. A magnitude that overflows to infinity
/// or underflows to zero (1e999, 1e-400) is "number out of range", as
/// RFC 8259 §9 allows; subnormals and -0 parse to their exact bits.
class JsonReader {
 public:
  /// `max_depth` bounds nesting: a value inside more than `max_depth`
  /// open containers is rejected. The document's own value sits at 0.
  explicit JsonReader(std::string_view text, int max_depth = 64)
      : begin_(text.data()),
        cur_(text.data()),
        end_(text.data() + text.size()),
        max_depth_(max_depth) {}

  /// The type of the next value, after whitespace, without consuming it.
  /// Fails at the end of input or past the nesting bound. A byte that
  /// starts no value reads as kNumber, and ReadNumber then rejects it.
  [[nodiscard]] Result<JsonValue::Type> Peek();

  /// Enters the object or array that comes next.
  [[nodiscard]] Status BeginObject() { return Open('{'); }
  [[nodiscard]] Status BeginArray() { return Open('['); }

  /// Moves to the next member of the innermost open object: reads its
  /// key into `*key` and the ':' after it, and returns true. Returns
  /// false, past the '}', when the object ends.
  [[nodiscard]] Result<bool> NextMember(std::string* key);
  /// Moves to the next element of the innermost open array: true before
  /// each element, false past the ']'.
  [[nodiscard]] Result<bool> NextElement();

  /// Scalar reads of the next value, which must be of that type.
  /// ReadString replaces `*out` with the unescaped string.
  [[nodiscard]] Status ReadString(std::string* out);
  [[nodiscard]] Result<double> ReadNumber();
  [[nodiscard]] Result<bool> ReadBool();
  [[nodiscard]] Status ReadNull();

  /// Reads the next value, checking its whole grammar, and drops it.
  [[nodiscard]] Status Skip();

  /// Call after the document's value: only whitespace may follow.
  [[nodiscard]] Status Finish();

 private:
  Status Error(const char* what) const;
  void SkipWhitespace();
  bool Consume(char c);
  bool ConsumeLiteral(std::string_view literal);
  Status Open(char bracket);

  const char* begin_;
  const char* cur_;
  const char* end_;
  int max_depth_;
  int depth_ = 0;      // open containers
  bool first_ = false;  // the innermost container was just opened
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected) into a tree. `max_depth` bounds nesting as
/// JsonReader's does; input size is bounded by the HTTP layer's body
/// limit before it ever reaches here.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text, int max_depth = 64);

/// Renders `s` as a double-quoted JSON string literal (with escapes):
/// the util/string_util writer, kept reachable as net::EscapeJson for
/// the callers that spell it that way.
using fab::EscapeJson;

}  // namespace fab::net

#endif  // FAB_NET_JSON_H_
