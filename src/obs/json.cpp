#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace archex::obs {

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

std::string Json::get_string(const std::string& key,
                             const std::string& dflt) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->str_ : dflt;
}

double Json::get_number(const std::string& key, double dflt) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->num_ : dflt;
}

bool Json::get_bool(const std::string& key, bool dflt) const {
  const Json* v = find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : dflt;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passthrough
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {

void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::Null: out += "null"; break;
    case Json::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::Number: out += json_number(v.as_number()); break;
    case Json::Type::String: out += json_quote(v.as_string()); break;
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& e : v.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_value(e, out);
      }
      out += ']';
      break;
    }
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out += ',';
        first = false;
        out += json_quote(k);
        out += ':';
        dump_value(e, out);
      }
      out += '}';
      break;
    }
  }
}

/// Recursive-descent parser over the input buffer; depth-capped so a
/// pathological request line cannot blow the worker's stack.
class Parser {
 public:
  Parser(const std::string& text, std::string* err) : text_(text), err_(err) {}

  std::optional<Json> run() {
    std::optional<Json> v = value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& why) {
    if (err_ != nullptr && err_->empty()) {
      *err_ = "offset " + std::to_string(pos_) + ": " + why;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<std::string> string_body() {
    // Caller consumed the opening quote.
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail("raw control character in string");
          return std::nullopt;
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("bad hex digit in \\u escape");
              return std::nullopt;
            }
          }
          // Encode the BMP code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences — the wire never carries them).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<Json> value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == 'n') {
      if (literal("null")) return Json();
      fail("bad literal");
      return std::nullopt;
    }
    if (c == 't') {
      if (literal("true")) return Json(true);
      fail("bad literal");
      return std::nullopt;
    }
    if (c == 'f') {
      if (literal("false")) return Json(false);
      fail("bad literal");
      return std::nullopt;
    }
    if (c == '"') {
      ++pos_;
      std::optional<std::string> s = string_body();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (c == '[') {
      ++pos_;
      Json::Array arr;
      if (consume(']')) return Json(std::move(arr));
      for (;;) {
        std::optional<Json> e = value(depth + 1);
        if (!e) return std::nullopt;
        arr.push_back(std::move(*e));
        if (consume(',')) continue;
        if (consume(']')) return Json(std::move(arr));
        fail("expected ',' or ']' in array");
        return std::nullopt;
      }
    }
    if (c == '{') {
      ++pos_;
      Json::Object obj;
      if (consume('}')) return Json(std::move(obj));
      for (;;) {
        if (!consume('"')) {
          fail("expected string key");
          return std::nullopt;
        }
        std::optional<std::string> key = string_body();
        if (!key) return std::nullopt;
        if (!consume(':')) {
          fail("expected ':' after key");
          return std::nullopt;
        }
        std::optional<Json> e = value(depth + 1);
        if (!e) return std::nullopt;
        obj[std::move(*key)] = std::move(*e);
        if (consume(',')) continue;
        if (consume('}')) return Json(std::move(obj));
        fail("expected ',' or '}' in object");
        return std::nullopt;
      }
    }
    // Number: delegate validation to strtod but forbid JSON-invalid prefixes
    // it would accept (hex, inf, nan, leading '+').
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = text_.c_str() + pos_;
      char* end = nullptr;
      const double d = std::strtod(start, &end);
      if (end == start || !std::isfinite(d)) {
        fail("bad number");
        return std::nullopt;
      }
      for (const char* p = start; p != end; ++p) {
        // strtod is laxer than JSON: no hex ("0x1f") or inf/nan spellings.
        if (*p == 'x' || *p == 'X' || *p == 'n' || *p == 'N' || *p == 'i' ||
            *p == 'I') {
          fail("bad number");
          return std::nullopt;
        }
      }
      pos_ += static_cast<std::size_t>(end - start);
      return Json(d);
    }
    fail("unexpected character");
    return std::nullopt;
  }

  const std::string& text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

std::optional<Json> Json::parse(const std::string& text, std::string* err) {
  if (err != nullptr) err->clear();
  return Parser(text, err).run();
}

}  // namespace archex::obs
