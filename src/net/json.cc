#include "net/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace fab::net {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

Result<std::string> JsonValue::GetString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing or non-string field \"" + key +
                                   "\"");
  }
  return v->str();
}

Result<double> JsonValue::GetNumber(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing or non-number field \"" + key +
                                   "\"");
  }
  return v->number();
}

/// Single-pass recursive-descent parser over a complete in-memory
/// document. Position-tracked errors ("at byte N") make malformed client
/// requests debuggable from the 400 response alone.
class JsonParser {
 public:
  JsonParser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    FAB_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(what + " at byte " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeLiteral(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        FAB_ASSIGN_OR_RETURN(std::string s, ParseString());
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = std::move(s);
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.type_ = JsonValue::Type::kBool;
        if (ConsumeLiteral("true")) {
          v.bool_ = true;
          return v;
        }
        if (ConsumeLiteral("false")) {
          v.bool_ = false;
          return v;
        }
        return Error("invalid literal");
      }
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      FAB_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      FAB_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
      v.object_[std::move(key)] = std::move(member);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return v;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      FAB_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
      v.array_.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return v;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any fab payload; reject rather than mis-encode).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == token.c_str()) {
      pos_ = start;
      return Error("malformed number");
    }
    // strtod saturates an overflowing literal (1e999) to ±inf, which no
    // JSON document can spell; RFC 8259 §9 lets a parser limit the range.
    if (!std::isfinite(parsed)) {
      pos_ = start;
      return Error("number out of range");
    }
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = parsed;
    return v;
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(const std::string& text, int max_depth) {
  return JsonParser(text, max_depth).Parse();
}

}  // namespace fab::net
