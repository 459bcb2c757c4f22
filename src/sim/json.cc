#include "src/sim/json.h"

#include <cctype>
#include <cstdlib>

namespace lastcpu::sim {
namespace {

// Local analogue of LASTCPU_RETURN_IF_ERROR for the parser's Status plumbing.
#define LASTCPU_JSON_RETURN(expr)          \
  do {                                     \
    Status json_status_ = (expr);          \
    if (!json_status_.ok()) {              \
      return json_status_;                 \
    }                                      \
  } while (false)

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    // Parsed straight into the result: moving a finished document into the
    // Result's variant trips a false -Wmaybe-uninitialized in GCC 12.
    Result<JsonValue> result = JsonValue();
    LASTCPU_JSON_RETURN(ParseValue(&result.value()));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing garbage after document");
    }
    return result;
  }

 private:
  Status Error(const std::string& what) {
    return InvalidArgument("json: " + what + " at offset " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
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

  Status ParseValue(JsonValue* out) {
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    Status status;
    switch (text_[pos_]) {
      case '{':
        status = ParseObject(out);
        break;
      case '[':
        status = ParseArray(out);
        break;
      case '"': {
        std::string s;
        status = ParseString(&s);
        if (status.ok()) {
          *out = JsonValue(std::move(s));
        }
        break;
      }
      case 't':
        status = ParseLiteral("true", JsonValue(true), out);
        break;
      case 'f':
        status = ParseLiteral("false", JsonValue(false), out);
        break;
      case 'n':
        status = ParseLiteral("null", JsonValue(nullptr), out);
        break;
      default:
        status = ParseNumber(out);
        break;
    }
    --depth_;
    return status;
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) {
      return Error("invalid literal");
    }
    pos_ += word.size();
    *out = std::move(value);
    return OkStatus();
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number");
    }
    *out = JsonValue(value);
    return OkStatus();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return Error("expected string");
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
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
          LASTCPU_JSON_RETURN(ParseUnicodeEscape(out));
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseUnicodeEscape(std::string* out) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    // Encode as UTF-8 (surrogate pairs are passed through individually; the
    // exporters never emit them).
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
    return OkStatus();
  }

  Status ParseArray(JsonValue* out) {
    Consume('[');
    JsonValue::Array items;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue(std::move(items));
      return OkStatus();
    }
    while (true) {
      JsonValue item;
      LASTCPU_JSON_RETURN(ParseValue(&item));
      items.push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) {
        break;
      }
      if (!Consume(',')) {
        return Error("expected ',' or ']'");
      }
    }
    *out = JsonValue(std::move(items));
    return OkStatus();
  }

  Status ParseObject(JsonValue* out) {
    Consume('{');
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue(std::move(members));
      return OkStatus();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      LASTCPU_JSON_RETURN(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      JsonValue value;
      LASTCPU_JSON_RETURN(ParseValue(&value));
      members[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume('}')) {
        break;
      }
      if (!Consume(',')) {
        return Error("expected ',' or '}'");
      }
    }
    *out = JsonValue(std::move(members));
    return OkStatus();
  }

#undef LASTCPU_JSON_RETURN

  static constexpr int kMaxDepth = 200;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  auto it = object().find(key);
  if (it == object().end()) {
    return nullptr;
  }
  return &it->second;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace lastcpu::sim
