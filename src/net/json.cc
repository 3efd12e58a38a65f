#include "net/json.h"

#include <charconv>
#include <system_error>

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

Status JsonReader::Error(const char* what) const {
  return Status::InvalidArgument(std::string(what) + " at byte " +
                                 std::to_string(cur_ - begin_));
}

void JsonReader::SkipWhitespace() {
  while (cur_ < end_ &&
         (*cur_ == ' ' || *cur_ == '\t' || *cur_ == '\n' || *cur_ == '\r')) {
    ++cur_;
  }
}

bool JsonReader::Consume(char c) {
  if (cur_ < end_ && *cur_ == c) {
    ++cur_;
    return true;
  }
  return false;
}

bool JsonReader::ConsumeLiteral(std::string_view literal) {
  if (std::string_view(cur_, static_cast<size_t>(end_ - cur_))
          .starts_with(literal)) {
    cur_ += literal.size();
    return true;
  }
  return false;
}

Result<JsonValue::Type> JsonReader::Peek() {
  if (depth_ > max_depth_) return Error("nesting too deep");
  SkipWhitespace();
  if (cur_ >= end_) return Error("unexpected end of input");
  switch (*cur_) {
    case '{': return JsonValue::Type::kObject;
    case '[': return JsonValue::Type::kArray;
    case '"': return JsonValue::Type::kString;
    case 't':
    case 'f': return JsonValue::Type::kBool;
    case 'n': return JsonValue::Type::kNull;
    default: return JsonValue::Type::kNumber;
  }
}

Status JsonReader::Open(char bracket) {
  FAB_RETURN_IF_ERROR(Peek().status());
  if (!Consume(bracket)) {
    return Error(bracket == '{' ? "expected an object" : "expected an array");
  }
  ++depth_;
  first_ = true;
  return Status::OK();
}

Result<bool> JsonReader::NextMember(std::string* key) {
  SkipWhitespace();
  const bool first = first_;
  first_ = false;
  if (Consume('}')) {
    --depth_;
    return false;
  }
  if (!first) {
    if (!Consume(',')) return Error("expected ',' or '}' in object");
    SkipWhitespace();
  }
  if (cur_ >= end_ || *cur_ != '"') return Error("expected object key");
  FAB_RETURN_IF_ERROR(ReadString(key));
  SkipWhitespace();
  if (!Consume(':')) return Error("expected ':' after object key");
  return true;
}

Result<bool> JsonReader::NextElement() {
  SkipWhitespace();
  const bool first = first_;
  first_ = false;
  if (Consume(']')) {
    --depth_;
    return false;
  }
  if (!first && !Consume(',')) return Error("expected ',' or ']' in array");
  return true;
}

Status JsonReader::ReadString(std::string* out) {
  FAB_RETURN_IF_ERROR(Peek().status());
  if (!Consume('"')) return Error("expected a string");
  out->clear();
  while (true) {
    // Copy the run of bytes that need no unescaping in one append.
    const char* run = cur_;
    while (cur_ < end_ && *cur_ != '"' && *cur_ != '\\' &&
           static_cast<unsigned char>(*cur_) >= 0x20) {
      ++cur_;
    }
    out->append(run, cur_);
    if (cur_ >= end_) return Error("unterminated string");
    const char c = *cur_++;
    if (c == '"') return Status::OK();
    if (c != '\\') return Error("raw control character in string");
    if (cur_ >= end_) return Error("unterminated escape");
    const char esc = *cur_++;
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (end_ - cur_ < 4) return Error("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = *cur_++;
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
        return Error("invalid escape character");
    }
  }
}

Result<double> JsonReader::ReadNumber() {
  FAB_RETURN_IF_ERROR(Peek().status());
  // The token is the longest run of number bytes; from_chars must then
  // take all of it, so "1e", "1-2" and "+1" are malformed, not prefixes.
  const char* start = cur_;
  Consume('-');
  while (cur_ < end_ && ((*cur_ >= '0' && *cur_ <= '9') || *cur_ == '.' ||
                         *cur_ == 'e' || *cur_ == 'E' || *cur_ == '+' ||
                         *cur_ == '-')) {
    ++cur_;
  }
  if (cur_ == start) return Error("expected a JSON value");
  double value = 0.0;
  const std::from_chars_result parsed = std::from_chars(start, cur_, value);
  const char* token_end = cur_;
  cur_ = start;  // errors point at the token
  if (parsed.ptr != token_end ||
      parsed.ec == std::errc::invalid_argument) {
    return Error("malformed number");
  }
  if (parsed.ec == std::errc::result_out_of_range) {
    return Error("number out of range");
  }
  cur_ = token_end;
  return value;
}

Result<bool> JsonReader::ReadBool() {
  FAB_RETURN_IF_ERROR(Peek().status());
  if (ConsumeLiteral("true")) return true;
  if (ConsumeLiteral("false")) return false;
  return Error(*cur_ == 't' || *cur_ == 'f' ? "invalid literal"
                                            : "expected a boolean");
}

Status JsonReader::ReadNull() {
  FAB_RETURN_IF_ERROR(Peek().status());
  if (ConsumeLiteral("null")) return Status::OK();
  return Error(*cur_ == 'n' ? "invalid literal" : "expected null");
}

Status JsonReader::Skip() {
  FAB_ASSIGN_OR_RETURN(const JsonValue::Type type, Peek());
  switch (type) {
    case JsonValue::Type::kObject: {
      FAB_RETURN_IF_ERROR(BeginObject());
      std::string key;
      while (true) {
        FAB_ASSIGN_OR_RETURN(const bool more, NextMember(&key));
        if (!more) return Status::OK();
        FAB_RETURN_IF_ERROR(Skip());
      }
    }
    case JsonValue::Type::kArray: {
      FAB_RETURN_IF_ERROR(BeginArray());
      while (true) {
        FAB_ASSIGN_OR_RETURN(const bool more, NextElement());
        if (!more) return Status::OK();
        FAB_RETURN_IF_ERROR(Skip());
      }
    }
    case JsonValue::Type::kString: {
      std::string s;
      return ReadString(&s);
    }
    case JsonValue::Type::kBool:
      return ReadBool().status();
    case JsonValue::Type::kNull:
      return ReadNull();
    case JsonValue::Type::kNumber:
      return ReadNumber().status();
  }
  return Status::OK();
}

Status JsonReader::Finish() {
  SkipWhitespace();
  if (cur_ != end_) return Error("trailing characters after JSON document");
  return Status::OK();
}

/// Builds a JsonValue tree from the reader, one node per value.
class JsonTreeBuilder {
 public:
  static Result<JsonValue> Build(JsonReader* reader) {
    FAB_ASSIGN_OR_RETURN(const JsonValue::Type type, reader->Peek());
    JsonValue v;
    v.type_ = type;
    switch (type) {
      case JsonValue::Type::kObject: {
        FAB_RETURN_IF_ERROR(reader->BeginObject());
        std::string key;
        while (true) {
          FAB_ASSIGN_OR_RETURN(const bool more, reader->NextMember(&key));
          if (!more) return v;
          FAB_ASSIGN_OR_RETURN(JsonValue member, Build(reader));
          v.object_[key] = std::move(member);
        }
      }
      case JsonValue::Type::kArray: {
        FAB_RETURN_IF_ERROR(reader->BeginArray());
        while (true) {
          FAB_ASSIGN_OR_RETURN(const bool more, reader->NextElement());
          if (!more) return v;
          FAB_ASSIGN_OR_RETURN(JsonValue element, Build(reader));
          v.array_.push_back(std::move(element));
        }
      }
      case JsonValue::Type::kString:
        FAB_RETURN_IF_ERROR(reader->ReadString(&v.string_));
        return v;
      case JsonValue::Type::kBool: {
        FAB_ASSIGN_OR_RETURN(v.bool_, reader->ReadBool());
        return v;
      }
      case JsonValue::Type::kNull:
        FAB_RETURN_IF_ERROR(reader->ReadNull());
        return v;
      case JsonValue::Type::kNumber: {
        FAB_ASSIGN_OR_RETURN(v.number_, reader->ReadNumber());
        return v;
      }
    }
    return v;
  }
};

Result<JsonValue> ParseJson(std::string_view text, int max_depth) {
  JsonReader reader(text, max_depth);
  FAB_ASSIGN_OR_RETURN(JsonValue value, JsonTreeBuilder::Build(&reader));
  FAB_RETURN_IF_ERROR(reader.Finish());
  return value;
}

}  // namespace fab::net
