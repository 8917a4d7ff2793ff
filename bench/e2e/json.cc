#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace oca::e2e {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    OCA_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const char* what) const {
    return Status::InvalidArgument(std::string("json: ") + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end");
    JsonValue v;
    const char c = text_[pos_];
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        SkipSpace();
        OCA_ASSIGN_OR_RETURN(std::string key, ParseString());
        SkipSpace();
        if (!Consume(":")) return Error("expected ':'");
        OCA_ASSIGN_OR_RETURN(JsonValue member, ParseValue(depth + 1));
        v.object[key] = std::move(member);
        SkipSpace();
        if (Consume(",")) continue;
        if (Consume("}")) return v;
        return Error("expected ',' or '}'");
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        OCA_ASSIGN_OR_RETURN(JsonValue element, ParseValue(depth + 1));
        v.array.push_back(std::move(element));
        SkipSpace();
        if (Consume(",")) continue;
        if (Consume("]")) return v;
        return Error("expected ',' or ']'");
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      OCA_ASSIGN_OR_RETURN(v.string, ParseString());
      return v;
    }
    if (Consume("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (Consume("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (Consume("null")) return v;
    return ParseNumber();
  }

  Result<std::string> ParseString() {
    if (!Consume("\"")) return Error("expected string");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          // The benchmark's files are ASCII; keep escapes below 0x80 and
          // replace anything else.
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Error("bad \\u escape");
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Error("unexpected character");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

Result<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = ParseJson(text.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace oca::e2e
