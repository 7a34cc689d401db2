#include "core/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace xct::core {

namespace {

[[noreturn]] void bad(const std::string& what, std::size_t at)
{
    throw std::invalid_argument("json: " + what + " at byte " + std::to_string(at));
}

[[noreturn]] void bad_field(std::string_view what, const char* problem)
{
    throw std::invalid_argument("json: " + std::string(what) + " " + problem);
}

void append_utf8(std::string& out, std::uint32_t cp)
{
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    static constexpr std::uint32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6)
        out.push_back(static_cast<char>(0x80 | ((cp >> shift) & 0x3F)));
}

class Parser {
public:
    explicit Parser(std::string_view text) : s_(text) {}

    Json parse_document()
    {
        Json v = parse_value(0);
        skip_ws();
        if (i_ != s_.size()) bad("trailing data", i_);
        return v;
    }

private:
    std::string_view s_;
    std::size_t i_ = 0;

    void skip_ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    char peek()
    {
        if (i_ >= s_.size()) bad("unexpected end", i_);
        return s_[i_];
    }

    void expect(char c)
    {
        if (peek() != c) bad(std::string("expected '") + c + "'", i_);
        ++i_;
    }

    bool consume(std::string_view lit)
    {
        if (s_.substr(i_, lit.size()) != lit) return false;
        i_ += lit.size();
        return true;
    }

    Json parse_value(int depth)
    {
        skip_ws();
        const char c = peek();
        if (c == '{' || c == '[') {
            if (depth >= json::kMaxDepth)
                bad("nesting deeper than " + std::to_string(json::kMaxDepth), i_);
            return parse_container(depth + 1);
        }
        if (c == '"') return Json(parse_string());
        if (consume("true")) return Json(true);
        if (consume("false")) return Json(false);
        if (consume("null")) return Json{};
        return parse_number();
    }

    Json parse_container(int depth)
    {
        const bool is_object = s_[i_++] == '{';
        const char close = is_object ? '}' : ']';
        Json v;
        v.type = is_object ? Json::Type::Object : Json::Type::Array;
        skip_ws();
        if (consume(std::string_view(&close, 1))) return v;
        do {
            if (is_object) {
                skip_ws();
                if (peek() != '"') bad("expected a member name", i_);
                std::string key = parse_string();
                skip_ws();
                expect(':');
                v.object.emplace_back(std::move(key), parse_value(depth));
            } else {
                v.array.push_back(parse_value(depth));
            }
            skip_ws();
        } while (consume(","));
        expect(close);
        return v;
    }

    std::uint32_t hex4()
    {
        if (s_.size() - i_ < 4) bad("truncated \\u escape", i_);
        std::uint32_t cp = 0;
        const char* end = s_.data() + i_ + 4;
        const auto [stop, ec] = std::from_chars(s_.data() + i_, end, cp, 16);
        if (ec != std::errc{} || stop != end) bad("bad \\u escape", i_);
        i_ += 4;
        return cp;
    }

    std::string parse_string()
    {
        expect('"');
        std::string out;
        while (true) {
            const std::size_t run = i_;
            while (i_ < s_.size() && s_[i_] != '"' && s_[i_] != '\\' &&
                   static_cast<unsigned char>(s_[i_]) >= 0x20)
                ++i_;
            out.append(s_.substr(run, i_ - run));
            const char c = peek();
            ++i_;
            if (c == '"') return out;
            if (c != '\\') bad("unescaped control character", i_ - 1);
            const char e = peek();
            ++i_;
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
                    const std::size_t at = i_ - 2;
                    std::uint32_t cp = hex4();
                    if (cp >= 0xDC00 && cp <= 0xDFFF) bad("lone low surrogate", at);
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        const std::uint32_t lo = consume("\\u") ? hex4() : 0;
                        if (lo < 0xDC00 || lo > 0xDFFF) bad("lone high surrogate", at);
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: bad("unsupported escape", i_ - 1);
            }
        }
    }

    Json parse_number()
    {
        // RFC 8259: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
        const std::size_t start = i_;
        const auto digits = [&] {
            const std::size_t from = i_;
            while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
            if (i_ == from) bad("expected value", start);
        };
        consume("-");
        if (!consume("0")) digits();
        if (consume(".")) digits();
        if (consume("e") || consume("E")) {
            if (!consume("+")) consume("-");
            digits();
        }
        Json v;
        v.type = Json::Type::Number;
        v.string = s_.substr(start, i_ - start);
        const auto [end, ec] = std::from_chars(s_.data() + start, s_.data() + i_, v.number);
        if (ec != std::errc{}) bad("number out of range", start);
        return v;
    }
};

void write_string(std::ostream& os, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    os << '"';
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') continue;
        os.write(s.data() + run, static_cast<std::streamsize>(i - run));
        run = i + 1;
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\b': os << "\\b"; break;
            case '\f': os << "\\f"; break;
            case '\n': os << "\\n"; break;
            case '\r': os << "\\r"; break;
            case '\t': os << "\\t"; break;
            default: os << "\\u00" << kHex[c >> 4] << kHex[c & 0xF];
        }
    }
    os.write(s.data() + run, static_cast<std::streamsize>(s.size() - run));
    os << '"';
}

/// The one number printer: shortest text that parses back bit-exactly.
std::string number_text(double v)
{
    if (!std::isfinite(v)) return "null";
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

// ---- Json ----------------------------------------------------------------

Json::Json(double v)
{
    if (!std::isfinite(v)) return;
    type = Type::Number;
    number = v;
    string = number_text(v);
}

Json Json::make_object(Members members)
{
    Json v;
    v.type = Type::Object;
    v.object = std::move(members);
    return v;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

const Json* Json::find(std::string_view key) const
{
    for (const auto& [k, v] : object)
        if (k == key) return &v;
    return nullptr;
}

const Json& Json::checked(Type t, std::string_view what) const
{
    static constexpr const char* kNames[] = {"null",     "a boolean", "a number",
                                             "a string", "an array",  "an object"};
    if (type != t)
        throw std::invalid_argument("json: " + std::string(what) + " must be " +
                                    kNames[static_cast<int>(t)]);
    return *this;
}

std::uint64_t Json::as_u64(std::string_view what) const
{
    checked(Type::Number, what);
    // A plain digit literal converts exactly; a sign, fraction, exponent
    // or more than 64 bits goes through the double.
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(string.data(), string.data() + string.size(), v);
    if (ec == std::errc{} && end == string.data() + string.size()) return v;
    if (number != std::floor(number)) bad_field(what, "must be an integer");
    if (number < 0.0) bad_field(what, "must not be negative");
    if (number >= 0x1p64) bad_field(what, "is out of range");
    return static_cast<std::uint64_t>(number);
}

index_t Json::as_index(std::string_view what) const
{
    const std::uint64_t v = as_u64(what);
    if (v > static_cast<std::uint64_t>(std::numeric_limits<index_t>::max()))
        bad_field(what, "is out of range");
    return static_cast<index_t>(v);
}

// ---- json::Writer ----------------------------------------------------------

namespace json {

void Writer::separate()
{
    if (first_.empty()) return;
    const bool spaced = style_ == Style::Spaced;
    if (spaced && first_.size() == 1)
        os_ << (first_.back() ? "\n  " : ",\n  ");
    else if (!first_.back())
        os_ << (spaced ? ", " : ",");
    first_.back() = false;
    if (has_key_) {
        write_string(os_, key_);
        os_ << (spaced ? ": " : ":");
        has_key_ = false;
    }
}

Writer& Writer::raw(std::string_view text) { separate(); os_ << text; return *this; }

Writer& Writer::open(char c) { separate(); os_ << c; first_.push_back(true); return *this; }

Writer& Writer::close(char bracket)
{
    if (style_ == Style::Spaced && first_.size() == 1 && !first_.back()) os_ << '\n';
    os_ << bracket;
    first_.pop_back();
    return *this;
}

Writer& Writer::value(double v) { return raw(number_text(v)); }

Writer& Writer::value(std::string_view s) { separate(); write_string(os_, s); return *this; }

Writer& Writer::value(const Json& v)
{
    switch (v.type) {
        case Json::Type::Null: return raw("null");
        case Json::Type::Bool: return value(v.boolean);
        case Json::Type::Number: return raw(v.string);
        case Json::Type::String: return value(std::string_view(v.string));
        case Json::Type::Array:
            begin_array();
            for (const Json& e : v.array) value(e);
            return end_array();
        case Json::Type::Object:
            begin_object();
            for (const auto& [k, e] : v.object) member(k, e);
            return end_object();
    }
    return *this;
}

std::string print(const Json& v, Style style)
{
    std::ostringstream os;
    Writer(os, style).value(v);
    return os.str();
}

void merge_section(const std::string& path, std::string_view section, Json::Members members,
                   bool fresh)
{
    Json doc = Json::make_object({});
    if (!fresh) {
        std::ostringstream text;
        text << std::ifstream(path).rdbuf();
        if (text.str().find_first_not_of(" \t\r\n") != std::string::npos)
            doc = Json::parse(text.str());
        if (doc.type != Json::Type::Object)
            throw std::invalid_argument("json: " + path + " is not a JSON object");
    }
    Json value = Json::make_object(std::move(members));
    const auto it = std::find_if(doc.object.begin(), doc.object.end(),
                                 [&](const auto& m) { return m.first == section; });
    if (it != doc.object.end())
        it->second = std::move(value);
    else
        doc.object.emplace_back(section, std::move(value));

    std::ofstream out(path, std::ios::trunc);
    Writer(out, Style::Spaced).value(doc);
    out << '\n';
    if (!out) throw std::runtime_error("json: cannot write " + path);
}

}  // namespace json
}  // namespace xct::core
