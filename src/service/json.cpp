#include "service/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/numfmt.h"

namespace wlansim::service {

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (unsigned char c : s) {
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
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

class Parser {
 public:
  Parser(std::string_view text, std::string* err) : text_(text), err_(err) {}

  std::optional<Json> run() {
    std::optional<Json> v = parse_value(0);
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(const std::string& what) {
    if (err_ && err_->empty())
      *err_ = what + " at offset " + std::to_string(pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  std::optional<Json> parse_value(int depth) {
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
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s) return std::nullopt;
      return Json::string(std::move(*s));
    }
    if (c == 't') {
      if (literal("true")) return Json::boolean(true);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 'f') {
      if (literal("false")) return Json::boolean(false);
      fail("invalid literal");
      return std::nullopt;
    }
    if (c == 'n') {
      if (literal("null")) return Json();
      fail("invalid literal");
      return std::nullopt;
    }
    return parse_number();
  }

  std::optional<Json> parse_object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail("expected object key");
        return std::nullopt;
      }
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':' after object key");
        return std::nullopt;
      }
      std::optional<Json> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      obj.set(std::move(*key), std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<Json> parse_array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      std::optional<Json> v = parse_value(depth + 1);
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  void encode_utf8(unsigned long cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::optional<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
      return std::nullopt;
    }
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else {
        fail("invalid \\u escape");
        return std::nullopt;
      }
    }
    pos_ += 4;
    return v;
  }

  std::optional<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
        return std::nullopt;
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c == '"') return out;
      if (c < 0x20) {
        fail("unescaped control character in string");
        return std::nullopt;
      }
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("truncated escape");
        return std::nullopt;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          std::optional<unsigned> hi = parse_hex4();
          if (!hi) return std::nullopt;
          unsigned long cp = *hi;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // Surrogate pair.
            if (!(consume('\\') && consume('u'))) {
              fail("unpaired surrogate");
              return std::nullopt;
            }
            std::optional<unsigned> lo = parse_hex4();
            if (!lo) return std::nullopt;
            if (*lo < 0xDC00 || *lo > 0xDFFF) {
              fail("invalid low surrogate");
              return std::nullopt;
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (*lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
            return std::nullopt;
          }
          encode_utf8(cp, out);
          break;
        }
        default:
          fail("invalid escape");
          return std::nullopt;
      }
    }
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail("invalid number");
      return std::nullopt;
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    bool integral = true;
    if (consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
        return std::nullopt;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        fail("invalid number");
        return std::nullopt;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral && *first != '-') {
      // Keep the exact-integer channel when the token fits in a u64.
      std::uint64_t u = 0;
      const auto [end, ec] = std::from_chars(first, last, u);
      if (ec == std::errc() && end == last) return Json::number_u64(u);
    }
    double d = 0.0;
    auto [end, ec] = std::from_chars(first, last, d);
    if (ec == std::errc::result_out_of_range) {
      // Overflow and underflow keep strtod's answers (+-inf, +-0), where
      // from_chars leaves d unset.
      d = std::strtod(std::string(first, last).c_str(), nullptr);
      ec = std::errc();
    }
    if (ec != std::errc() || end != last) {
      fail("invalid number");
      return std::nullopt;
    }
    return Json::number(d);
  }

  std::string_view text_;
  std::string* err_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::boolean(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.num_ = v;
  if (std::isfinite(v) && v >= 0.0 && v <= 9007199254740992.0 /* 2^53 */ &&
      v == std::floor(v) && !std::signbit(v)) {  // -0.0 must keep its sign
    j.u64_ = static_cast<std::uint64_t>(v);
    j.has_u64_ = true;
  }
  return j;
}

Json Json::number_u64(std::uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.u64_ = v;
  j.has_u64_ = true;
  j.num_ = static_cast<double>(v);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array(Array items) {
  Json j;
  j.type_ = Type::kArray;
  j.arr_ = std::move(items);
  return j;
}

Json Json::object(Object members) {
  Json j;
  j.type_ = Type::kObject;
  j.obj_ = std::move(members);
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON: not a number");
  return num_;
}

std::uint64_t Json::as_u64() const {
  if (type_ != Type::kNumber) throw std::runtime_error("JSON: not a number");
  if (has_u64_) return u64_;
  if (num_ >= 0.0 && num_ <= 9007199254740992.0 && num_ == std::floor(num_))
    return static_cast<std::uint64_t>(num_);
  throw std::runtime_error("JSON: number is not an exact unsigned integer");
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("JSON: not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) throw std::runtime_error("JSON: not an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) throw std::runtime_error("JSON: not an object");
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::kObject) return;
  for (auto& [k, existing] : obj_) {
    if (k == key) {  // replace in place, keep the member's slot
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

void Json::push_back(Json v) {
  if (type_ == Type::kArray) arr_.push_back(std::move(v));
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      if (has_u64_) {
        out += std::to_string(u64_);
      } else if (std::isfinite(num_)) {
        // The shortest `%.{p}g` text that parses back to the identical
        // bits — the scenario traces print through the same function.
        core::append_shortest(out, num_);
      } else {
        // JSON has no inf/nan tokens; the protocol layer wraps these
        // (service/protocol.cpp number_or_special) before they get here.
        out += "null";
      }
      break;
    case Type::kString:
      dump_string(str_, out);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out.push_back(',');
        first = false;
        v.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out.push_back(',');
        first = false;
        dump_string(k, out);
        out.push_back(':');
        v.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::optional<Json> Json::parse(std::string_view text, std::string* err) {
  if (err) err->clear();
  return Parser(text, err).run();
}

}  // namespace wlansim::service
