/**
 * @file
 * Minimal self-contained JSON document model for the declarative
 * scenario layer: a Value variant, a strict parser with
 * line/column-anchored errors, and a deterministic writer whose
 * output is byte-stable (fixed key order = insertion order, fixed
 * indentation, shortest-round-trip float formatting). The bench
 * artifacts (BENCH_*.json) already speak JSON; this gives the
 * config tree the same vocabulary without an external dependency.
 *
 * Numbers keep their lexical class: unsigned and signed integers
 * round-trip exactly (pvBytesPerCore-sized values never pass
 * through a double), and reals re-serialize to the shortest string
 * that parses back to the identical IEEE value — the property the
 * scenario fingerprints rely on.
 */

#ifndef PVSIM_CONFIG_JSON_HH
#define PVSIM_CONFIG_JSON_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace pvsim {
namespace json {

/** Any structural/type/parse error of the config layer. The what()
 *  string always names the offending path or input position. */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** One JSON value; objects preserve insertion order. */
class Value
{
  public:
    enum class Type {
        Null,
        Bool,
        Int,    ///< negative integer literal
        Uint,   ///< non-negative integer literal
        Real,   ///< literal with '.', 'e' or 'E'
        String,
        Array,
        Object,
    };

    Value() = default;

    static Value boolean(bool b);
    static Value integer(int64_t i);
    static Value uinteger(uint64_t u);
    static Value real(double d);
    static Value string(std::string s);
    static Value array();
    static Value object();

    Type type() const { return type_; }
    const char *typeName() const;

    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    // ---- Typed accessors; throw ConfigError naming `path` on a
    // ---- mismatch, so loader errors read "fig9.cores: ...".
    bool asBool(const std::string &path) const;
    uint64_t asUint(const std::string &path) const;
    int64_t asInt(const std::string &path) const;
    double asDouble(const std::string &path) const;
    const std::string &asString(const std::string &path) const;

    // ---- Array -------------------------------------------------------
    void push(Value v);
    const std::vector<Value> &items() const;

    // ---- Object (insertion-ordered) ----------------------------------
    /** Append or overwrite key (overwrite keeps its position). */
    void set(const std::string &key, Value v);
    /** Member value, or nullptr when absent. */
    const Value *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Value>> &members() const;

    bool operator==(const Value &o) const;
    bool operator!=(const Value &o) const { return !(*this == o); }

    /** Strict parse of a complete document (throws ConfigError with
     *  line:column on any syntax error, trailing garbage, or arrays
     *  and objects nested more than kMaxDepth deep). */
    static Value parse(const std::string &text);

    /** The deepest nesting parse() accepts: far beyond any config,
     *  far short of the stack the recursive parser would need. */
    static constexpr unsigned kMaxDepth = 256;

    /** Deterministic pretty-print; terminated by a newline. */
    std::string dump(unsigned indent = 2) const;

  private:
    void dumpTo(std::string &out, unsigned indent,
                unsigned depth) const;
    bool inlineable() const;

    Type type_ = Type::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    uint64_t uint_ = 0;
    double real_ = 0.0;
    std::string string_;
    std::vector<Value> items_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * Shortest decimal string that strtod()s back to exactly d, always
 * containing '.' or an exponent so it re-parses as Real. The writer
 * and the fingerprints share this, so a real-valued field has
 * exactly one canonical spelling.
 */
std::string formatReal(double d);

/** JSON string literal with the standard escapes. */
std::string quote(const std::string &s);

} // namespace json
} // namespace pvsim

#endif // PVSIM_CONFIG_JSON_HH
