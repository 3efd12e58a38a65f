// Deterministic mini-fuzz for the byte-level parsers the serving
// front-end exposes to untrusted input: net::ParseJson, the /predict
// body reader (net::ParsePredictBody) and the HTTP/1.1 HttpParser. Every
// case is Rng-driven from fixed seeds — a failure reproduces exactly —
// and iteration counts are bounded so the test stays in the quick tier.
// The asan/tsan twins run the same cases under sanitizers, which is
// where memory bugs would actually surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/forecast_service.h"
#include "net/http.h"
#include "net/json.h"
#include "util/random.h"

namespace fab::net {
namespace {

using fab::Rng;

// ---------------------------------------------------------------------------
// JSON

const std::vector<std::string>& JsonCorpus() {
  static const std::vector<std::string> kCorpus = {
      R"({"model": "rf", "horizon": 30, "features": [1.5, -2e3, 0.0]})",
      R"({"a": {"b": {"c": [true, false, null, "x\"y\\z\n"]}}})",
      R"([[], {}, [{}], {"": []}, 1e-9, -0.5, 123456789])",
      R"({"unicode": "Aé", "empty": "", "n": null})",
      R"(   {"ws": 1}   )",
      R"(3.141592653589793)",
      R"("just a string")",
  };
  return kCorpus;
}

/// Touches every node of a parsed document (exercises accessors on
/// whatever shape the fuzzer produced).
size_t CountNodes(const JsonValue& v) {
  size_t n = 1;
  if (v.is_array()) {
    for (const auto& e : v.array()) n += CountNodes(e);
  } else if (v.is_object()) {
    for (const auto& [key, val] : v.object()) n += key.empty() + CountNodes(val);
  } else if (v.is_string()) {
    n += v.str().size() > 0 ? 0 : 0;
  }
  return n;
}

std::string Mutate(const std::string& base, Rng* rng) {
  std::string s = base;
  const int edits = 1 + static_cast<int>(rng->UniformInt(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const size_t pos = rng->UniformInt(s.size());
    switch (rng->UniformInt(4)) {
      case 0:  // flip a byte
        s[pos] = static_cast<char>(rng->UniformInt(256));
        break;
      case 1:  // delete a byte
        s.erase(pos, 1);
        break;
      case 2:  // insert a structural byte
        s.insert(pos, 1, "{}[],:\"\\0123eE.-+"[rng->UniformInt(17)]);
        break;
      default:  // truncate
        s.resize(pos);
        break;
    }
  }
  return s;
}

TEST(NetFuzzTest, JsonCorpusParsesAndWalks) {
  for (const std::string& doc : JsonCorpus()) {
    auto parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << doc << ": " << parsed.status().ToString();
    EXPECT_GE(CountNodes(*parsed), 1u);
  }
}

TEST(NetFuzzTest, JsonMutationsNeverCrashAndVerdictIsDeterministic) {
  Rng rng(0xF022u);
  for (int iter = 0; iter < 600; ++iter) {
    const std::string& base = JsonCorpus()[rng.UniformInt(JsonCorpus().size())];
    const std::string mutated = Mutate(base, &rng);
    auto first = ParseJson(mutated);
    if (first.ok()) CountNodes(*first);
    // Same bytes, same verdict: the parser holds no hidden state.
    auto second = ParseJson(mutated);
    EXPECT_EQ(first.ok(), second.ok()) << mutated;
  }
}

TEST(NetFuzzTest, JsonRandomGarbageNeverCrashes) {
  Rng rng(0xBADF00Du);
  for (int iter = 0; iter < 400; ++iter) {
    std::string garbage(rng.UniformInt(200), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(256));
    auto parsed = ParseJson(garbage);
    if (parsed.ok()) CountNodes(*parsed);
  }
}

TEST(NetFuzzTest, JsonDepthBombIsRejectedNotOverflowed) {
  // 20k-deep nesting must come back as a clean error well before the
  // call stack is in danger.
  const std::string array_bomb(20000, '[');
  EXPECT_FALSE(ParseJson(array_bomb).ok());
  std::string object_bomb;
  for (int i = 0; i < 20000; ++i) object_bomb += "{\"a\":";
  EXPECT_FALSE(ParseJson(object_bomb).ok());

  // The bound is exact: ParseValue rejects depth > max_depth, and the
  // outermost value sits at depth 0, so max_depth+1 brackets parse and
  // max_depth+2 do not.
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(9), 8).ok());
  EXPECT_FALSE(ParseJson(nested(10), 8).ok());
}

TEST(NetFuzzTest, JsonTruncationsOfValidDocsFailCleanly) {
  for (const std::string& doc : JsonCorpus()) {
    for (size_t cut = 0; cut < doc.size(); ++cut) {
      auto parsed = ParseJson(doc.substr(0, cut));
      if (parsed.ok()) CountNodes(*parsed);  // e.g. "3.14" cut to "3"
    }
  }
}

// ---------------------------------------------------------------------------
// /predict bodies
//
// ParsePredictBody reads a body in one pass and builds no tree. Its
// reference is the route it replaced: the recursive-descent strtod parser
// that ParseJson was, copied here, and the fields pulled out of its tree.
// The two must agree on every body, in verdict and bit for bit in the
// matrix, except where the number grammar changed on purpose: a leading
// '+' and a magnitude that underflows to zero are now rejected. The
// reference applies those two rules too, each marked below.

struct RefValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  double number = 0.0;
  std::string str;
  std::vector<RefValue> items;
  std::map<std::string, RefValue> members;  // a repeated key: last wins
};

class RefParser {
 public:
  explicit RefParser(const std::string& text) : text_(text) {}

  bool Parse(RefValue* out) {
    if (!Value(0, out)) return false;
    SkipWhitespace();
    return pos_ == text_.size();
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
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
  bool Literal(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool Value(int depth, RefValue* v) {
    if (depth > 64) return false;
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        v->kind = RefValue::kObject;
        SkipWhitespace();
        if (Consume('}')) return true;
        while (true) {
          SkipWhitespace();
          std::string key;
          if (pos_ >= text_.size() || text_[pos_] != '"' || !String(&key)) {
            return false;
          }
          SkipWhitespace();
          if (!Consume(':')) return false;
          RefValue member;
          if (!Value(depth + 1, &member)) return false;
          v->members[key] = std::move(member);
          SkipWhitespace();
          if (Consume(',')) continue;
          return Consume('}');
        }
      }
      case '[': {
        ++pos_;
        v->kind = RefValue::kArray;
        SkipWhitespace();
        if (Consume(']')) return true;
        while (true) {
          v->items.emplace_back();
          if (!Value(depth + 1, &v->items.back())) return false;
          SkipWhitespace();
          if (Consume(',')) continue;
          return Consume(']');
        }
      }
      case '"':
        v->kind = RefValue::kString;
        return String(&v->str);
      case 't':
      case 'f':
        v->kind = RefValue::kBool;
        return Literal("true") || Literal("false");
      case 'n':
        return Literal("null");
      default:
        v->kind = RefValue::kNumber;
        return Number(&v->number);
    }
  }

  bool String(std::string* out) {
    ++pos_;  // the opening quote
    while (true) {
      if (pos_ >= text_.size()) return false;
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (code >= 0xD800 && code <= 0xDFFF) return false;
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
          return false;
      }
    }
  }

  bool Number(double* out) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token = text_.substr(start, pos_ - start);
    // Changed on purpose: RFC 8259 has no leading '+'.
    if (token[0] == '+') return false;
    char* end = nullptr;
    errno = 0;
    *out = std::strtod(token.c_str(), &end);
    if (*end != '\0' || end == token.c_str()) return false;
    // Changed on purpose: an underflow to zero is out of range, like an
    // overflow to infinity.
    if (errno == ERANGE && *out == 0.0) return false;
    return std::isfinite(*out);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// The reference verdict: a RefParser tree, then the fields and rows
/// pulled out of it, in the order the tree route checked them.
bool ReferencePredictBody(const std::string& text, PredictBody* out) {
  RefValue doc;
  if (!RefParser(text).Parse(&doc) || doc.kind != RefValue::kObject) {
    return false;
  }
  auto find = [&](const char* key, RefValue::Kind kind) -> const RefValue* {
    auto it = doc.members.find(key);
    return it == doc.members.end() || it->second.kind != kind ? nullptr
                                                              : &it->second;
  };
  const RefValue* period = find("period", RefValue::kString);
  const RefValue* model = find("model", RefValue::kString);
  const RefValue* window = find("window", RefValue::kNumber);
  if (period == nullptr || model == nullptr || window == nullptr) return false;
  const double w = window->number;
  if (!(w >= 1.0 && w <= static_cast<double>(std::numeric_limits<int>::max()) &&
        w == std::floor(w))) {
    return false;
  }
  out->key.period = period->str;
  out->key.model = model->str;
  out->key.window = static_cast<int>(w);
  const RefValue* rows = find("rows", RefValue::kArray);
  if (rows == nullptr || rows->items.empty()) return false;
  const std::vector<RefValue>& list = rows->items;
  const size_t width =
      list.front().kind == RefValue::kArray ? list.front().items.size() : 0;
  out->rows = ml::ColMatrix(list.size(), width);
  for (size_t r = 0; r < list.size(); ++r) {
    if (list[r].kind != RefValue::kArray || list[r].items.size() != width) {
      return false;
    }
    for (size_t c = 0; c < width; ++c) {
      if (list[r].items[c].kind != RefValue::kNumber) return false;
      out->rows.set(r, c, list[r].items[c].number);
    }
  }
  return true;
}

/// Counts the bodies the reference accepted, so a fuzz loop can show it
/// reached the accepting paths and not only the error ones.
size_t ExpectMatchesReference(const std::string& body) {
  PredictBody want;
  const bool accepted = ReferencePredictBody(body, &want);
  Result<PredictBody> got = ParsePredictBody(body);
  EXPECT_EQ(got.ok(), accepted)
      << body << "\n  reader: "
      << (got.ok() ? "accepted" : got.status().ToString());
  if (!got.ok() || !accepted) return 0;
  EXPECT_EQ(got->key.period, want.key.period) << body;
  EXPECT_EQ(got->key.model, want.key.model) << body;
  EXPECT_EQ(got->key.window, want.key.window) << body;
  EXPECT_EQ(got->rows.rows(), want.rows.rows()) << body;
  EXPECT_EQ(got->rows.cols(), want.rows.cols()) << body;
  if (got->rows.rows() != want.rows.rows() ||
      got->rows.cols() != want.rows.cols()) {
    return 1;
  }
  for (size_t c = 0; c < want.rows.cols(); ++c) {
    for (size_t r = 0; r < want.rows.rows(); ++r) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got->rows.at(r, c)),
                std::bit_cast<uint64_t>(want.rows.at(r, c)))
          << body << " at (" << r << ", " << c << ")";
    }
  }
  return 1;
}

const std::vector<std::string>& PredictCorpus() {
  static const std::vector<std::string> kCorpus = {
      R"({"period":"2017","window":7,"model":"rf","rows":[[1.5,-2e3,0.0]]})",
      R"({"rows":[[0.1,4.9e-324,-0],[2.2250738585072011e-308,1E+2,-7.25]],)"
      R"("model":"xgb","window":21.0,"period":"2019"})",
      // Repeated keys: the last one counts, whatever the earlier held.
      R"({"period":"2017","window":7,"model":"rf","rows":[[1,2]],)"
      R"("rows":[[3,4],[5,6]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[1],[2,3]],)"
      R"("rows":[[9]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[9]],)"
      R"("rows":[[1],[2,3]]})",
      R"({"period":7,"period":"2017","window":"7","window":7,"model":"rf",)"
      R"("rows":[[1]]})",
      // Members the reader only checks and skips.
      R"( {"extra":{"deep":[true,null,"x\"y\\z\né"]},"period":"2019",)"
      R"("model":"mlp","window":1,"rows":[[-0.000001, 123456789012345]]} )",
      // Shapes the matrix refuses.
      R"({"period":"2017","window":7,"model":"rf","rows":[]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[],[]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[1,[2]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[1,"2"]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":{"0":[1]}})",
      R"({"period":"2017","window":7.5,"model":"rf","rows":[[1]]})",
      R"({"period":"2017","window":0,"model":"rf","rows":[[1]]})",
      R"({"period":"2017","model":"rf","rows":[[1]]})",
      R"([{"period":"2017","window":7,"model":"rf","rows":[[1]]}])",
      // The two grammar changes.
      R"({"period":"2017","window":7,"model":"rf","rows":[[+1]]})",
      R"({"period":"2017","window":7,"model":"rf","rows":[[1e-400]]})",
  };
  return kCorpus;
}

TEST(NetFuzzTest, PredictCorpusMatchesTheTreeReference) {
  size_t accepted = 0;
  for (const std::string& body : PredictCorpus()) {
    accepted += ExpectMatchesReference(body);
  }
  // Eight make a matrix: the two [[]] bodies give 0-column ones, which
  // the parser passes on for the model to refuse.
  EXPECT_EQ(accepted, 8u);
}

TEST(NetFuzzTest, PredictMutationsMatchTheTreeReference) {
  Rng rng(0x9E0Du);
  size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string& base =
        PredictCorpus()[rng.UniformInt(PredictCorpus().size())];
    accepted += ExpectMatchesReference(Mutate(base, &rng));
  }
  EXPECT_GT(accepted, 0u);
}

TEST(NetFuzzTest, PredictSplitsMatchTheTreeReference) {
  // Each body cut at every byte, and its two halves joined the other way
  // round.
  for (const std::string& body : PredictCorpus()) {
    for (size_t cut = 0; cut <= body.size(); ++cut) {
      ExpectMatchesReference(body.substr(0, cut));
      ExpectMatchesReference(body.substr(cut) + body.substr(0, cut));
    }
  }
}

TEST(NetFuzzTest, PredictGarbageMatchesTheTreeReference) {
  Rng rng(0x6A4Bu);
  // Raw bytes, then bytes drawn from the JSON alphabet so that more of
  // them get past the first token.
  const std::string alphabet = "{}[],:\"\\ 0123456789.eE+-tfnul";
  for (int iter = 0; iter < 800; ++iter) {
    std::string garbage(rng.UniformInt(120), '\0');
    for (char& c : garbage) {
      c = iter % 2 == 0 ? static_cast<char>(rng.UniformInt(256))
                        : alphabet[rng.UniformInt(alphabet.size())];
    }
    ExpectMatchesReference(garbage);
  }
}

// ---------------------------------------------------------------------------
// HTTP/1.1

std::string CanonicalRequest() {
  return "POST /predict?window=30 HTTP/1.1\r\n"
         "Host: localhost:8080\r\n"
         "Content-Type: application/json\r\n"
         "X-Request-Id: fuzz-0001\r\n"
         "Content-Length: 27\r\n"
         "\r\n"
         R"({"features": [1.0, 2.0, 3]})";
}

void ExpectCanonical(const HttpParser& parser) {
  ASSERT_TRUE(parser.done());
  const HttpRequest& req = parser.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/predict?window=30");
  EXPECT_EQ(req.version, "HTTP/1.1");
  ASSERT_EQ(req.headers.size(), 4u);
  ASSERT_NE(req.Header("Content-Length"), nullptr);
  EXPECT_EQ(req.body, R"({"features": [1.0, 2.0, 3]})");
}

TEST(NetFuzzTest, HttpSplitAtEveryByteParsesIdentically) {
  const std::string wire = CanonicalRequest();
  for (size_t split = 0; split <= wire.size(); ++split) {
    HttpParser parser(HttpParser::Mode::kRequest);
    ASSERT_TRUE(parser.Consume(wire.data(), split).ok()) << "split " << split;
    ASSERT_TRUE(parser.Consume(wire.data() + split, wire.size() - split).ok())
        << "split " << split;
    ExpectCanonical(parser);
  }
}

TEST(NetFuzzTest, HttpRandomChunkingParsesIdentically) {
  const std::string wire = CanonicalRequest();
  Rng rng(0xC4A11u);
  for (int iter = 0; iter < 200; ++iter) {
    HttpParser parser(HttpParser::Mode::kRequest);
    size_t off = 0;
    while (off < wire.size()) {
      const size_t n =
          std::min(wire.size() - off, 1 + rng.UniformInt(17));
      ASSERT_TRUE(parser.Consume(wire.data() + off, n).ok());
      off += n;
    }
    ExpectCanonical(parser);
  }
}

TEST(NetFuzzTest, HttpTruncationIsIncompleteNotAnError) {
  const std::string wire = CanonicalRequest();
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    HttpParser parser(HttpParser::Mode::kRequest);
    ASSERT_TRUE(parser.Consume(wire.data(), cut).ok()) << "cut " << cut;
    EXPECT_FALSE(parser.done()) << "cut " << cut;
    EXPECT_FALSE(parser.error()) << "cut " << cut;
  }
}

TEST(NetFuzzTest, HttpByteFlipsNeverCrashAndErrorsStayTerminal) {
  const std::string wire = CanonicalRequest();
  Rng rng(0x5EED5u);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = wire;
    const int flips = 1 + static_cast<int>(rng.UniformInt(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] =
          static_cast<char>(rng.UniformInt(256));
    }
    HttpParser parser(HttpParser::Mode::kRequest);
    (void)parser.Consume(mutated.data(), mutated.size());
    if (parser.done()) {
      // Whatever parsed must be internally coherent.
      const HttpRequest& req = parser.request();
      const std::string* len = req.Header("Content-Length");
      if (len != nullptr && *len == "27") {
        EXPECT_EQ(req.body.size(), 27u);
      }
    } else if (parser.error()) {
      // Terminal: more bytes never resurrect the parse or crash.
      (void)parser.Consume(mutated.data(), mutated.size());
      EXPECT_TRUE(parser.error());
      EXPECT_FALSE(parser.done());
    }
  }
}

TEST(NetFuzzTest, HttpHostileContentLengthsAreRejected) {
  for (const char* bad : {"abc", "-1", "1e3", "27x", "0x1b",
                          "99999999999999999999", "4294967296000"}) {
    HttpParser parser(HttpParser::Mode::kRequest);
    const std::string wire = std::string("POST / HTTP/1.1\r\nContent-Length: ") +
                             bad + "\r\n\r\nbody";
    (void)parser.Consume(wire.data(), wire.size());
    EXPECT_FALSE(parser.done()) << bad;
    EXPECT_TRUE(parser.error()) << bad;
  }
}

TEST(NetFuzzTest, HttpHeaderFloodHitsTheHeadLimit) {
  HttpParser parser(HttpParser::Mode::kRequest);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 4000; ++i) {
    wire += "X-Flood-" + std::to_string(i) + ": aaaaaaaaaaaaaaaa\r\n";
  }
  wire += "\r\n";
  (void)parser.Consume(wire.data(), wire.size());
  EXPECT_TRUE(parser.error());
  EXPECT_FALSE(parser.done());
}

TEST(NetFuzzTest, HttpPipelinedRequestsSurviveRandomChunking) {
  const std::string wire = CanonicalRequest() + CanonicalRequest();
  Rng rng(0x9199u);
  for (int iter = 0; iter < 100; ++iter) {
    HttpParser parser(HttpParser::Mode::kRequest);
    size_t off = 0;
    int completed = 0;
    while (off < wire.size() || parser.done()) {
      if (parser.done()) {
        ExpectCanonical(parser);
        ++completed;
        if (completed == 2) break;
        ASSERT_TRUE(parser.Reset().ok());
        continue;
      }
      const size_t n = std::min(wire.size() - off, 1 + rng.UniformInt(31));
      ASSERT_TRUE(parser.Consume(wire.data() + off, n).ok());
      off += n;
    }
    EXPECT_EQ(completed, 2);
  }
}

}  // namespace
}  // namespace fab::net
