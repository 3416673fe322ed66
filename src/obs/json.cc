#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"
#include "support/text.h"

namespace drsm::obs {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  // %.17g round-trips any double but writes 0.1 as 0.10000000000000001;
  // pick the shortest precision that round-trips instead.
  for (int precision = 6; precision <= 17; ++precision) {
    std::string text = strfmt("%.*g", precision, value);
    if (std::strtod(text.c_str(), nullptr) == value) return text;
  }
  return strfmt("%.17g", value);
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  DRSM_CHECK(kind_ == Kind::kArray || kind_ == Kind::kNull,
             "JsonValue::push_back on a non-array");
  kind_ = Kind::kArray;
  items_.push_back(std::move(v));
  return items_.back();
}

JsonValue& JsonValue::operator[](std::string_view key) {
  DRSM_CHECK(kind_ == Kind::kObject || kind_ == Kind::kNull,
             "JsonValue::operator[] on a non-object");
  kind_ = Kind::kObject;
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) return items_[i];
  keys_.emplace_back(key);
  items_.emplace_back();
  return items_.back();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (std::size_t i = 0; i < keys_.size(); ++i)
    if (keys_[i] == key) return &items_[i];
  return nullptr;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  DRSM_CHECK(i < items_.size(), "JsonValue::at out of range");
  return items_[i];
}

const std::string& JsonValue::key(std::size_t i) const {
  DRSM_CHECK(kind_ == Kind::kObject && i < keys_.size(),
             "JsonValue::key out of range");
  return keys_[i];
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const std::string pad(pretty ? indent * (depth + 1) : 0, ' ');
  const std::string close_pad(pretty ? indent * depth : 0, ' ');
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: out += json_number(num_); return;
    case Kind::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      return;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (items_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        if (pretty) {
          out += '\n';
          out += pad;
        }
        out += '"';
        out += json_escape(keys_[i]);
        out += pretty ? "\": " : "\":";
        items_[i].dump_to(out, indent, depth + 1);
      }
      if (pretty) {
        out += '\n';
        out += close_pad;
      }
      out += '}';
      return;
    }
  }
}

namespace {

/// Recursive-descent JSON parser over a string_view; positions are byte
/// offsets for error messages.  Nesting is bounded so a hostile document
/// fails cleanly instead of overflowing the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error(strfmt("JSON parse error at byte %zu: %s", pos_,
                       what.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(strfmt("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth)
          fail(strfmt("nesting deeper than %d levels", kMaxDepth));
        JsonValue out = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return out;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      out[key] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_utf8(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size())
      fail("bad number");
    return JsonValue(value);
  }

  static constexpr int kMaxDepth = 256;  // our reports nest a few levels

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around the current position
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  DRSM_CHECK(f != nullptr, "cannot open " + path + " for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  DRSM_CHECK(written == text.size() && close_rc == 0,
             "short write to " + path);
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("cannot open " + path + " for reading");
  std::string out;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    out.append(buf, got);
  std::fclose(f);
  return out;
}

}  // namespace drsm::obs
