/**
 * @file
 * Field-visitor reflection over the config tree. A config struct
 * opts in by providing, in its own namespace (found via ADL):
 *
 *     template <class V> void reflectFields(T &c, V &v) {
 *         v.field("num_cores", c.numCores);
 *         v.field("btb", c.btb); // nested reflectable
 *     }
 *
 * and gets, for free:
 *   - toJson(c)            deterministic document (field order)
 *   - fromJson(j, c, path) strict parse: unknown keys rejected with
 *                          a full path, absent keys keep defaults
 *   - dumpConfig(c)        canonical byte-stable serialization
 *   - parseConfig<T>(text) the inverse
 *   - fingerprint(c)       stable 64-bit FNV-1a hash of the
 *                          canonical form (dependency tracking; the
 *                          getml Predictor::fingerprint idiom)
 *
 * Enums join by providing `enumNames(E*)` returning (value, name)
 * pairs; vectors and nested reflectables compose automatically.
 * Custom (de)serializations — e.g. WorkloadMix from a preset-name
 * string — are plain non-template fromJson/toJson overloads beside
 * the struct's reflectFields; overload resolution prefers them.
 */

#ifndef PVSIM_CONFIG_REFLECT_HH
#define PVSIM_CONFIG_REFLECT_HH

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "config/json.hh"

namespace pvsim {
namespace config {

// ---- Trait: does T provide reflectFields? -----------------------------

/** Probe visitor used only inside decltype. */
struct FieldProbe {
    template <class F> void field(const char *, F &) {}
};

template <class T, class = void>
struct is_reflectable : std::false_type {};
template <class T>
struct is_reflectable<
    T, std::void_t<decltype(reflectFields(
           std::declval<T &>(), std::declval<FieldProbe &>()))>>
    : std::true_type {};

// ---- Trait: does T provide enumNames? ---------------------------------

template <class T, class = void>
struct has_enum_names : std::false_type {};
template <class T>
struct has_enum_names<
    T, std::void_t<decltype(enumNames(static_cast<T *>(nullptr)))>>
    : std::true_type {};

// All four declared before any visitor so that unqualified calls
// inside the visitors see the vector overloads too — vector<T> for a
// pvsim type does not pull pvsim::config in via ADL.
template <class T> json::Value toJson(const T &v);
template <class T> json::Value toJson(const std::vector<T> &v);
template <class T>
void fromJson(const json::Value &j, T &out, const std::string &path);
template <class T>
void fromJson(const json::Value &j, std::vector<T> &out,
              const std::string &path);

// ---- Write visitor ----------------------------------------------------

class WriteVisitor
{
  public:
    explicit WriteVisitor(json::Value &obj) : obj_(obj) {}

    template <class F>
    void
    field(const char *name, F &v)
    {
        obj_.set(name, toJson(v));
    }

  private:
    json::Value &obj_;
};

// ---- Read visitor -----------------------------------------------------

class ReadVisitor
{
  public:
    ReadVisitor(const json::Value &obj, const std::string &path)
        : obj_(obj), path_(path)
    {
        if (!obj.isObject())
            throw json::ConfigError(path + ": expected object, got " +
                                    std::string(obj.typeName()));
    }

    template <class F>
    void
    field(const char *name, F &v)
    {
        consumed_.push_back(name);
        if (const json::Value *j = obj_.find(name))
            fromJson(*j, v, path_ + "." + name);
        // Absent keys keep the member's default — scenarios only
        // spell what they change.
    }

    /** Strictness: every member of the object must have been
     *  declared by some field() call. */
    void
    finish() const
    {
        for (const auto &kv : obj_.members()) {
            bool known = false;
            for (const char *name : consumed_)
                if (kv.first == name)
                    known = true;
            if (!known)
                throw json::ConfigError(
                    path_ + ": unknown key \"" + kv.first + "\"");
        }
    }

  private:
    const json::Value &obj_;
    std::string path_;
    std::vector<const char *> consumed_;
};

// ---- Enum codecs ------------------------------------------------------

template <class E>
json::Value
enumToJson(E e)
{
    for (const auto &kv : enumNames(static_cast<E *>(nullptr)))
        if (kv.first == e)
            return json::Value::string(kv.second);
    throw json::ConfigError("enum value has no registered name");
}

template <class E>
void
enumFromJson(const json::Value &j, E &out, const std::string &path)
{
    const std::string &s = j.asString(path);
    std::string known;
    for (const auto &kv : enumNames(static_cast<E *>(nullptr))) {
        if (s == kv.second) {
            out = kv.first;
            return;
        }
        if (!known.empty())
            known += ", ";
        known += kv.second;
    }
    throw json::ConfigError(path + ": unknown value \"" + s +
                            "\" (one of: " + known + ")");
}

// ---- Generic dispatch -------------------------------------------------

template <class T>
json::Value
toJson(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return json::Value::boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
        static_assert(has_enum_names<T>::value,
                      "enum lacks an enumNames() registration");
        return enumToJson(v);
    } else if constexpr (std::is_integral_v<T> &&
                         std::is_unsigned_v<T>) {
        return json::Value::uinteger(uint64_t(v));
    } else if constexpr (std::is_integral_v<T>) {
        return json::Value::integer(int64_t(v));
    } else if constexpr (std::is_floating_point_v<T>) {
        return json::Value::real(double(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
        return json::Value::string(v);
    } else {
        static_assert(is_reflectable<T>::value,
                      "type is neither scalar nor reflectable");
        json::Value obj = json::Value::object();
        WriteVisitor w(obj);
        // reflectFields takes T& so one declaration serves read and
        // write; the write visitor never mutates.
        reflectFields(const_cast<T &>(v), w);
        return obj;
    }
}

template <class T>
json::Value
toJson(const std::vector<T> &v)
{
    json::Value arr = json::Value::array();
    for (const T &e : v)
        arr.push(toJson(e));
    return arr;
}

template <class T>
void
fromJson(const json::Value &j, T &out, const std::string &path)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = j.asBool(path);
    } else if constexpr (std::is_enum_v<T>) {
        enumFromJson(j, out, path);
    } else if constexpr (std::is_integral_v<T> &&
                         std::is_unsigned_v<T>) {
        uint64_t u = j.asUint(path);
        if (u > uint64_t(std::numeric_limits<T>::max()))
            throw json::ConfigError(path + ": value " +
                                    std::to_string(u) +
                                    " out of range");
        out = T(u);
    } else if constexpr (std::is_integral_v<T>) {
        int64_t i = j.asInt(path);
        if (i > int64_t(std::numeric_limits<T>::max()) ||
            i < int64_t(std::numeric_limits<T>::min()))
            throw json::ConfigError(path + ": value " +
                                    std::to_string(i) +
                                    " out of range");
        out = T(i);
    } else if constexpr (std::is_floating_point_v<T>) {
        out = T(j.asDouble(path));
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = j.asString(path);
    } else {
        static_assert(is_reflectable<T>::value,
                      "type is neither scalar nor reflectable");
        ReadVisitor r(j, path);
        reflectFields(out, r);
        r.finish();
    }
}

template <class T>
void
fromJson(const json::Value &j, std::vector<T> &out,
         const std::string &path)
{
    if (!j.isArray())
        throw json::ConfigError(path + ": expected array, got " +
                                std::string(j.typeName()));
    out.clear();
    size_t i = 0;
    for (const json::Value &e : j.items()) {
        out.emplace_back();
        fromJson(e, out.back(), path + "[" + std::to_string(i) + "]");
        ++i;
    }
}

// ---- Canonical text and fingerprints ----------------------------------

/** Canonical byte-stable serialization of a reflectable config. */
template <class T>
std::string
dumpConfig(const T &v)
{
    return toJson(v).dump();
}

/** Strict parse over defaults: text -> T (throws ConfigError). */
template <class T>
T
parseConfig(const std::string &text, const std::string &path = "$")
{
    T out{};
    fromJson(json::Value::parse(text), out, path);
    return out;
}

/** FNV-1a over a string (the canonical config dump). */
inline uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Stable config fingerprint: the hash of the canonical
 * serialization, so it changes iff some field's canonical value
 * changes — the dependency-tracking key the scenario manifest
 * records.
 */
template <class T>
uint64_t
fingerprint(const T &v)
{
    return fnv1a(dumpConfig(v));
}

/** "0123456789abcdef" spelling used in manifests and artifacts. */
inline std::string
fingerprintHex(uint64_t h)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(16, '0');
    for (int i = 15; i >= 0; --i) {
        s[size_t(i)] = digits[h & 0xF];
        h >>= 4;
    }
    return s;
}

} // namespace config
} // namespace pvsim

#endif // PVSIM_CONFIG_REFLECT_HH
