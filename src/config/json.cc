#include "config/json.hh"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pvsim {
namespace json {

// ---- Construction -----------------------------------------------------

Value
Value::boolean(bool b)
{
    Value v;
    v.type_ = Type::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::integer(int64_t i)
{
    if (i >= 0)
        return uinteger(uint64_t(i));
    Value v;
    v.type_ = Type::Int;
    v.int_ = i;
    return v;
}

Value
Value::uinteger(uint64_t u)
{
    Value v;
    v.type_ = Type::Uint;
    v.uint_ = u;
    return v;
}

Value
Value::real(double d)
{
    Value v;
    v.type_ = Type::Real;
    v.real_ = d;
    return v;
}

Value
Value::string(std::string s)
{
    Value v;
    v.type_ = Type::String;
    v.string_ = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v.type_ = Type::Array;
    return v;
}

Value
Value::object()
{
    Value v;
    v.type_ = Type::Object;
    return v;
}

const char *
Value::typeName() const
{
    switch (type_) {
      case Type::Null: return "null";
      case Type::Bool: return "bool";
      case Type::Int:
      case Type::Uint: return "integer";
      case Type::Real: return "number";
      case Type::String: return "string";
      case Type::Array: return "array";
      case Type::Object: return "object";
    }
    return "?";
}

// ---- Typed accessors --------------------------------------------------

namespace {

[[noreturn]] void
typeError(const std::string &path, const char *want,
          const char *got)
{
    throw ConfigError(path + ": expected " + want + ", got " + got);
}

} // namespace

bool
Value::asBool(const std::string &path) const
{
    if (type_ != Type::Bool)
        typeError(path, "bool", typeName());
    return bool_;
}

uint64_t
Value::asUint(const std::string &path) const
{
    if (type_ == Type::Uint)
        return uint_;
    if (type_ == Type::Int) // always negative by construction
        throw ConfigError(path + ": expected a non-negative integer, "
                                 "got " + std::to_string(int_));
    typeError(path, "unsigned integer", typeName());
}

int64_t
Value::asInt(const std::string &path) const
{
    if (type_ == Type::Int)
        return int_;
    if (type_ == Type::Uint) {
        if (uint_ > uint64_t(INT64_MAX))
            throw ConfigError(path + ": integer out of range");
        return int64_t(uint_);
    }
    typeError(path, "integer", typeName());
}

double
Value::asDouble(const std::string &path) const
{
    switch (type_) {
      case Type::Real: return real_;
      case Type::Uint: return double(uint_);
      case Type::Int: return double(int_);
      default: typeError(path, "number", typeName());
    }
}

const std::string &
Value::asString(const std::string &path) const
{
    if (type_ != Type::String)
        typeError(path, "string", typeName());
    return string_;
}

// ---- Containers -------------------------------------------------------

void
Value::push(Value v)
{
    if (type_ != Type::Array)
        throw ConfigError("push on non-array json value");
    items_.push_back(std::move(v));
}

const std::vector<Value> &
Value::items() const
{
    if (type_ != Type::Array)
        throw ConfigError("items() on non-array json value");
    return items_;
}

void
Value::set(const std::string &key, Value v)
{
    if (type_ != Type::Object)
        throw ConfigError("set on non-object json value");
    for (auto &kv : members_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    members_.emplace_back(key, std::move(v));
}

const Value *
Value::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Value>> &
Value::members() const
{
    if (type_ != Type::Object)
        throw ConfigError("members() on non-object json value");
    return members_;
}

bool
Value::operator==(const Value &o) const
{
    if (type_ != o.type_)
        return false;
    switch (type_) {
      case Type::Null: return true;
      case Type::Bool: return bool_ == o.bool_;
      case Type::Int: return int_ == o.int_;
      case Type::Uint: return uint_ == o.uint_;
      case Type::Real: return real_ == o.real_;
      case Type::String: return string_ == o.string_;
      case Type::Array: return items_ == o.items_;
      case Type::Object: return members_ == o.members_;
    }
    return false;
}

// ---- Writer -----------------------------------------------------------

std::string
formatReal(double d)
{
    if (std::isnan(d) || std::isinf(d))
        throw ConfigError("non-finite number is not representable "
                          "in a scenario file");
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    std::string s = buf;
    // Force a Real spelling so the lexical class round-trips.
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    return s;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    out += '"';
    return out;
}

bool
Value::inlineable() const
{
    // Scalar-only arrays print on one line; everything structured
    // gets its own lines. Deterministic either way.
    if (type_ != Type::Array)
        return false;
    for (const Value &v : items_)
        if (v.isArray() || v.isObject())
            return false;
    return true;
}

void
Value::dumpTo(std::string &out, unsigned indent,
              unsigned depth) const
{
    const std::string pad((depth + 1) * indent, ' ');
    const std::string close_pad(depth * indent, ' ');
    char buf[32];
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Int:
        std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
        out += buf;
        break;
      case Type::Uint:
        std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
        out += buf;
        break;
      case Type::Real:
        out += formatReal(real_);
        break;
      case Type::String:
        out += quote(string_);
        break;
      case Type::Array:
        if (items_.empty()) {
            out += "[]";
        } else if (inlineable()) {
            out += '[';
            for (size_t i = 0; i < items_.size(); ++i) {
                if (i)
                    out += ", ";
                items_[i].dumpTo(out, indent, depth + 1);
            }
            out += ']';
        } else {
            out += "[\n";
            for (size_t i = 0; i < items_.size(); ++i) {
                out += pad;
                items_[i].dumpTo(out, indent, depth + 1);
                if (i + 1 < items_.size())
                    out += ',';
                out += '\n';
            }
            out += close_pad + "]";
        }
        break;
      case Type::Object:
        if (members_.empty()) {
            out += "{}";
        } else {
            out += "{\n";
            for (size_t i = 0; i < members_.size(); ++i) {
                out += pad + quote(members_[i].first) + ": ";
                members_[i].second.dumpTo(out, indent, depth + 1);
                if (i + 1 < members_.size())
                    out += ',';
                out += '\n';
            }
            out += close_pad + "}";
        }
        break;
    }
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    out += '\n';
    return out;
}

// ---- Parser -----------------------------------------------------------

namespace {

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        Value v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after the document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg)
    {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        throw ConfigError("json parse error at " +
                          std::to_string(line) + ":" +
                          std::to_string(col) + ": " + msg);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Value
    parseValue()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (++depth_ > Value::kMaxDepth)
                fail("nested deeper than " +
                     std::to_string(Value::kMaxDepth) + " levels");
            Value v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
          }
          case '"': return Value::string(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value::boolean(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value::boolean(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value();
            fail("bad literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        expect('{');
        Value obj = Value::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            if (obj.find(key))
                fail("duplicate key \"" + key + "\"");
            skipWs();
            expect(':');
            obj.set(key, parseValue());
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray()
    {
        expect('[');
        Value arr = Value::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            skipWs();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        fail("truncated \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= unsigned(h - 'A' + 10);
                        else
                            fail("bad \\u escape");
                    }
                    // Config strings are ASCII identifiers; encode
                    // the BMP codepoint as UTF-8.
                    if (cp < 0x80) {
                        out += char(cp);
                    } else if (cp < 0x800) {
                        out += char(0xC0 | (cp >> 6));
                        out += char(0x80 | (cp & 0x3F));
                    } else {
                        out += char(0xE0 | (cp >> 12));
                        out += char(0x80 | ((cp >> 6) & 0x3F));
                        out += char(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("bad escape character");
                }
            } else if ((unsigned char)c < 0x20) {
                fail("raw control character in string");
            } else {
                out += c;
            }
        }
    }

    Value
    parseNumber()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() &&
               std::isdigit((unsigned char)text_[pos_])) {
            ++pos_;
            digits = true;
        }
        bool is_real = false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            is_real = true;
            ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit((unsigned char)text_[pos_]))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            is_real = true;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() &&
                   std::isdigit((unsigned char)text_[pos_]))
                ++pos_;
        }
        if (!digits)
            fail("bad number");
        std::string lex = text_.substr(start, pos_ - start);
        if (is_real)
            return Value::real(std::strtod(lex.c_str(), nullptr));
        errno = 0;
        if (lex[0] == '-') {
            int64_t i = std::strtoll(lex.c_str(), nullptr, 10);
            if (errno == ERANGE)
                fail("integer out of range");
            return Value::integer(i);
        }
        uint64_t u = std::strtoull(lex.c_str(), nullptr, 10);
        if (errno == ERANGE)
            fail("integer out of range");
        return Value::uinteger(u);
    }

    const std::string &text_;
    size_t pos_ = 0;
    unsigned depth_ = 0; ///< arrays and objects open at pos_
};

} // namespace

Value
Value::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace json
} // namespace pvsim
