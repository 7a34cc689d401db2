#pragma once
// The tree's one JSON reader and writer (DESIGN.md §3k).
//
// Reader: a strict RFC 8259 parser into a `Json` tree.  It faces
// untrusted socket bytes, so malformed input — bad syntax, a lone UTF-16
// surrogate, a number outside double range, nesting deeper than
// `kMaxDepth` — throws std::invalid_argument naming the byte offset.
// Numbers keep their literal text beside the double, so 64-bit integers
// survive exactly; `as_u64`/`as_index` range-check instead of casting.
//
// Writer: streaming, with one escaper (`\u00XX` for control bytes) and one
// number printer (shortest round-trip `std::to_chars`, `null` when not
// finite).  Compact style (`{"a":1}`) is for the wire and traces; Spaced
// (`{"a": 1}`) for report, BENCH and machine files, where each member of
// the root container starts its own line.

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace xct::core {

/// Parsed (or built) JSON value; tree-owned, no sharing.
class Json {
public:
    enum class Type { Null, Bool, Number, String, Array, Object };
    using Members = std::vector<std::pair<std::string, Json>>;

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;  ///< a String's value, or a Number's literal text
    std::vector<Json> array;
    Members object;  ///< insertion order, duplicates kept

    Json() = default;
    Json(bool b) : type(Type::Bool), boolean(b) {}
    Json(double v);  ///< null when `v` is not finite
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Json(T v) : type(Type::Number), number(static_cast<double>(v)), string(std::to_string(v))
    {
    }
    Json(std::string_view s) : type(Type::String), string(s) {}
    Json(const std::string& s) : Json(std::string_view(s)) {}
    Json(const char* s) : Json(std::string_view(s)) {}
    static Json make_object(Members members);

    /// Parse one document; throws std::invalid_argument ("json: <what>
    /// at byte N") on malformed input or trailing data.
    static Json parse(std::string_view text);

    /// Object member lookup; nullptr when absent or not an object.
    const Json* find(std::string_view key) const;

    /// Typed accessors; throw std::invalid_argument naming `what` on a
    /// type mismatch so API errors carry the offending field.
    double as_number(std::string_view what) const { return checked(Type::Number, what).number; }
    const std::string& as_string(std::string_view what) const
    {
        return checked(Type::String, what).string;
    }
    bool as_bool(std::string_view what) const { return checked(Type::Bool, what).boolean; }
    /// An integer in [0, 2^64); fractions and negatives are errors too.
    std::uint64_t as_u64(std::string_view what) const;
    /// An integer in [0, INT64_MAX].
    index_t as_index(std::string_view what) const;

    bool operator==(const Json&) const = default;

private:
    const Json& checked(Type t, std::string_view what) const;
};

namespace json {

/// Containers nested deeper than this are rejected by Json::parse.
inline constexpr int kMaxDepth = 64;

enum class Style { Compact, Spaced };

/// Streaming writer.  Inside an object, call key() before each value, or
/// use member().  The caller owns the stream and any trailing newline.
class Writer {
public:
    explicit Writer(std::ostream& os, Style style = Style::Compact) : os_(os), style_(style) {}

    Writer& begin_object() { return open('{'); }
    Writer& end_object() { return close('}'); }
    Writer& begin_array() { return open('['); }
    Writer& end_array() { return close(']'); }
    Writer& key(std::string_view k) { key_ = k; has_key_ = true; return *this; }

    Writer& value(bool b) { return raw(b ? "true" : "false"); }
    Writer& value(double v);
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    Writer& value(T v)
    {
        return raw(std::to_string(v));  // not `os << v`: a char type prints a glyph
    }
    Writer& value(std::string_view s);
    Writer& value(const std::string& s) { return value(std::string_view(s)); }
    Writer& value(const char* s) { return value(std::string_view(s)); }
    Writer& value(const Json& v);

    template <typename T>
    Writer& member(std::string_view k, const T& v)
    {
        return key(k).value(v);
    }

private:
    /// Separator, line break and pending key before the next value.
    void separate();
    Writer& raw(std::string_view text);
    Writer& open(char bracket);
    Writer& close(char bracket);

    std::ostream& os_;
    Style style_;
    std::vector<bool> first_;  ///< per open container: nothing written yet
    std::string key_;
    bool has_key_ = false;
};

/// Render a tree in one go.
std::string print(const Json& v, Style style = Style::Compact);

/// Set `section` to an object of `members` in the BENCH-style document at
/// `path` and rewrite it in Spaced style.  `fresh` starts a new document;
/// otherwise the file's other sections are kept (a missing or empty file
/// counts as `{}`) and a same-named section is replaced in place.  Throws
/// std::invalid_argument when the file holds something other than a JSON
/// object, std::runtime_error when it cannot be written.
void merge_section(const std::string& path, std::string_view section, Json::Members members,
                   bool fresh = false);

}  // namespace json
}  // namespace xct::core
