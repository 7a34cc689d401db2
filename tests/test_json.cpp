// core/json tests: the strict parser (grammar, escapes, depth cap, exact
// integers and range-checked accessors), the streaming writer (escaper,
// shortest round-trip numbers, null for non-finite, the two styles), the
// BENCH section merge, and a seeded mutation fuzz over one document of
// every kind the tree reads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "core/json.hpp"

namespace xct::core {
namespace {

using json::Style;

std::string read_file(const std::filesystem::path& p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- parser -----------------------------------------------------------------

TEST(JsonParse, ReadsEveryValueKindInOrder)
{
    const Json j = Json::parse(R"( {"n": null, "t": true, "f": false, "x": -1.5e2,
                                    "s": "a\/b", "a": [1, "2", []], "o": {}, "n": 7} )");
    ASSERT_EQ(j.type, Json::Type::Object);
    ASSERT_EQ(j.object.size(), 8u);
    EXPECT_EQ(j.object[0].second.type, Json::Type::Null);
    EXPECT_TRUE(j.find("t")->as_bool("t"));
    EXPECT_FALSE(j.find("f")->as_bool("f"));
    EXPECT_EQ(j.find("x")->as_number("x"), -150.0);
    EXPECT_EQ(j.find("s")->as_string("s"), "a/b");
    EXPECT_EQ(j.find("a")->array.size(), 3u);
    EXPECT_EQ(j.find("o")->type, Json::Type::Object);
    // Duplicates are kept; lookup finds the first.
    EXPECT_EQ(j.find("n")->type, Json::Type::Null);
    EXPECT_EQ(j.find("missing"), nullptr);
    EXPECT_THROW(j.find("s")->as_number("s"), std::invalid_argument);
}

TEST(JsonParse, RejectsMalformedInputWithATypedError)
{
    const char* bad[] = {
        "",         "{",          "[1,]",        "{\"a\" 1}",  "{\"a\":1,}",   "{1:2}",
        "01",       "1.",         ".5",          "+1",         "1e",           "-",
        "tru",      "nul",        "[1] x",       "\"\\x\"",    "\"a\nb\"",     "\"\\u12\"",
        "\"\\u12G4\"", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "1e400", "-1e400",
        "1e-400",   "'a'",        "[\"a\" \"b\"]", "{\"a\":1 \"b\":2}",
    };
    for (const char* text : bad) EXPECT_THROW(Json::parse(text), std::invalid_argument) << text;
}

TEST(JsonParse, NestingIsCappedWithTheByteOffset)
{
    const int cap = json::kMaxDepth;
    EXPECT_NO_THROW(Json::parse(std::string(cap, '[') + std::string(cap, ']')));
    try {
        Json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'));
        FAIL() << "nesting past the cap was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 at byte 64"),
                  std::string::npos)
            << e.what();
    }
    // The socket accepts 16 MiB lines; a line of brackets must not
    // exhaust the stack.
    EXPECT_THROW(Json::parse(std::string(100001, '[')), std::invalid_argument);
    EXPECT_THROW(Json::parse(std::string(100001, '{')), std::invalid_argument);
}

TEST(JsonParse, DecodesUnicodeEscapesAndSurrogatePairs)
{
    EXPECT_EQ(Json::parse(R"("\u0041\u00e9\u20ac\ud83d\ude00\u0000z")").string,
              std::string("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80", 10) + std::string(1, '\0') +
                  "z");
    EXPECT_EQ(Json::parse(R"("\b\f\n\r\t\"\\")").string, "\b\f\n\r\t\"\\");
}

// ---- numbers ------------------------------------------------------------------

TEST(JsonNumbers, IntegersStayExactIn64Bits)
{
    const std::uint64_t big = (std::uint64_t{1} << 60) + 1;
    EXPECT_EQ(Json::parse("1152921504606846977").as_u64("n"), big);
    EXPECT_EQ(Json::parse("18446744073709551615").as_u64("n"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(json::print(Json(big)), "1152921504606846977");
    EXPECT_EQ(Json::parse(json::print(Json(big))).as_u64("n"), big);
    EXPECT_EQ(Json::parse("9223372036854775807").as_index("n"),
              std::numeric_limits<index_t>::max());
    // Integral values written with a fraction or exponent are accepted.
    EXPECT_EQ(Json::parse("5.0").as_u64("n"), 5u);
    EXPECT_EQ(Json::parse("1e3").as_index("n"), 1000);
    EXPECT_EQ(Json::parse("-0").as_u64("n"), 0u);
}

TEST(JsonNumbers, RangeCheckedAccessorsRejectWhatACastWouldMangle)
{
    for (const char* text : {"1e300", "-5", "1.5", "18446744073709551616", "-1", "1e30"})
        EXPECT_THROW(Json::parse(text).as_u64("n"), std::invalid_argument) << text;
    for (const char* text : {"9223372036854775808", "1e30", "-1", "0.5"})
        EXPECT_THROW(Json::parse(text).as_index("n"), std::invalid_argument) << text;
    EXPECT_THROW(Json::parse("\"7\"").as_u64("n"), std::invalid_argument);
    try {
        Json::parse("-5").as_u64("device_capacity");
        FAIL();
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("device_capacity"), std::string::npos);
    }
}

TEST(JsonNumbers, DoublesPrintShortestAndRoundTripBitExactly)
{
    EXPECT_EQ(json::print(Json(0.1)), "0.1");
    EXPECT_EQ(json::print(Json(100.0)), "100");
    EXPECT_EQ(json::print(Json(1e21)), "1e+21");
    for (const double v : {0.27999999999999997, 6.283185307179586, 1.0 / 3.0, -2.5e-300,
                           5e-324, 1.7976931348623157e308}) {
        const double back = Json::parse(json::print(Json(v))).as_number("v");
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << v;
    }
}

TEST(JsonNumbers, NonFiniteValuesWriteNull)
{
    EXPECT_EQ(Json(std::nan("")).type, Json::Type::Null);
    EXPECT_EQ(json::print(Json(std::numeric_limits<double>::infinity())), "null");
    std::ostringstream ss;
    json::Writer(ss).begin_array().value(-std::numeric_limits<double>::infinity()).end_array();
    EXPECT_EQ(ss.str(), "[null]");
}

// ---- writer -------------------------------------------------------------------

TEST(JsonWriter, EscapesEveryControlByte)
{
    EXPECT_EQ(json::print(Json("\x01\b\"\\\n\x1f/")), R"("\u0001\b\"\\\n\u001f/")");
    std::string all;
    for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
    const std::string text = json::print(Json(all));
    for (const char c : text) EXPECT_FALSE(c >= 0 && c < 0x20) << static_cast<int>(c);
    EXPECT_EQ(Json::parse(text).string, all);
}

TEST(JsonWriter, CompactAndSpacedStyles)
{
    const Json doc = Json::make_object(
        {{"a", 1}, {"s", Json::make_object({{"x", 1.5}, {"y", "z"}})}, {"b", true}});
    EXPECT_EQ(json::print(doc), R"({"a":1,"s":{"x":1.5,"y":"z"},"b":true})");
    // Spaced: each member of the root container starts its own line.
    EXPECT_EQ(json::print(doc, Style::Spaced),
              "{\n  \"a\": 1,\n  \"s\": {\"x\": 1.5, \"y\": \"z\"},\n  \"b\": true\n}");
    EXPECT_EQ(json::print(Json::make_object({}), Style::Spaced), "{}");
    std::ostringstream ss;
    json::Writer w(ss);
    w.begin_object().member("id", std::uint64_t{3}).key("xs").begin_array();
    for (int i = 0; i < 3; ++i) w.value(i);
    w.end_array().member("k", std::string("v")).end_object();
    EXPECT_EQ(ss.str(), R"({"id":3,"xs":[0,1,2],"k":"v"})");
}

// ---- merge_section ------------------------------------------------------------

TEST(JsonMerge, FreshMergeAndReplaceInPlace)
{
    const auto path = (std::filesystem::temp_directory_path() / "xct_json_merge.json").string();
    json::merge_section(path, "a", {{"x", 1}, {"nan", std::nan("")}}, /*fresh=*/true);
    EXPECT_EQ(read_file(path), "{\n  \"a\": {\"x\": 1, \"nan\": null}\n}\n");
    json::merge_section(path, "b", {{"y", "s"}});
    json::merge_section(path, "a", {{"x", 2}});
    EXPECT_EQ(read_file(path), "{\n  \"a\": {\"x\": 2},\n  \"b\": {\"y\": \"s\"}\n}\n");

    std::ofstream(path) << "[1, 2]";
    EXPECT_THROW(json::merge_section(path, "a", {}), std::invalid_argument);
    std::filesystem::remove(path);
    json::merge_section(path, "c", {{"z", 0}});  // a missing file merges as {}
    EXPECT_EQ(Json::parse(read_file(path)).find("c")->find("z")->as_u64("z"), 0u);
    std::filesystem::remove(path);
}

// ---- seeded mutation fuzz -------------------------------------------------------

/// One document of each kind the tree reads.  The spec lines are in the
/// encoding of the serve protocol before core/json (17-digit doubles).
std::vector<std::string> fuzz_corpus()
{
    return {
        R"({"op":"submit","spec":{"geometry":{"dso":100,"dsd":250,"num_proj":16,"nu":32,)"
        R"("nv":32,"du":0.5,"dv":0.5,"vol":[16,16,16],"dx":0.27999999999999997,)"
        R"("dy":0.27999999999999997,"dz":0.27999999999999997,"scan_range":6.2831853071795862},)"
        R"("phantom_seed":5,"batches":4,"device_capacity":50331648,"priority":"high",)"
        R"("tenant":"alice","deadline_s":2.5,"output":"/spool/out/job-3.vol"}})",
        R"({"geometry":{"dso":100,"dsd":250,"num_proj":16,"nu":32,"nv":32,"du":0.5,"dv":0.5,)"
        R"("vol":[16,16,16],"dx":0.27999999999999997,"dy":0.27999999999999997,)"
        R"("dz":0.27999999999999997,"scan_range":6.2831853071795862},"phantom_seed":5,)"
        R"("batches":4,"device_capacity":50331648,"priority":"normal","tenant":"t\u0001",)"
        R"("deadline_s":0,"output":""})",
        read_file(std::filesystem::path(XCT_SOURCE_DIR) / "bench" / "BENCH_baseline.json"),
        "{\n  \"schema\": \"xct.machine.v1\",\n  \"bw_load_gbps\": 2.5,\n"
        "  \"bw_store_gbps\": 1.25,\n  \"th_flt_geps\": 0.5,\n  \"th_bp_gups\": 12,\n"
        "  \"th_reduce_gbps\": 8,\n  \"bw_h2d_gbps\": 11.75,\n  \"bw_d2h_gbps\": 12.5\n}\n",
        R"([{"directory": "/work/xct/build/src/core",
             "command": "/usr/bin/c++ -I/work/xct/src -O2 -std=c++20 -o a.o -c ../types.cpp",
             "file": "/work/xct/src/core/types.cpp"},
            {"directory": "/work/xct/build", "file": "tools/x\\y \"q\".cpp"}])",
        R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}},
{"name":"bp\u00e9\ud83d\ude00","cat":"pipeline","ph":"X","ts":12.500000,"dur":3.250000,)"
        R"("pid":0,"tid":1,"args":{"item":2,"bytes":4096}}
]})",
    };
}

std::string mutate(std::string s, std::mt19937_64& rng)
{
    static const char* tokens[] = {"{",   "}",    "[",      "]",       "\"",       ",",
                                   ":",   "\\",   "\\u",    "\\ud800", "\\udc00",  "null",
                                   "1e999", "-0", "1.5e-3", "[[[[",    "18446744073709551616",
                                   "\x01", "\xff", " ",     "tru",     "9223372036854775808"};
    const auto pick = [&](std::size_t n) {
        return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    const int ops = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < ops; ++k) {
        const std::size_t at = pick(s.size() + 1);
        switch (rng() % 5) {
            case 0:  // overwrite one byte
                if (!s.empty()) s[pick(s.size())] = static_cast<char>(rng() & 0xFF);
                break;
            case 1:  // delete a short range
                s.erase(at, 1 + pick(8));
                break;
            case 2:  // insert a JSON-significant token
                s.insert(at, tokens[pick(std::size(tokens))]);
                break;
            case 3: {  // duplicate a span elsewhere
                const std::size_t from = pick(s.size() + 1);
                const std::string span = s.substr(from, 1 + pick(32));
                s.insert(pick(s.size() + 1), span);
                break;
            }
            default:  // truncate
                s.resize(at);
        }
    }
    return s;
}

TEST(JsonFuzz, MutantsParseAndRoundTripOrThrowInvalidArgument)
{
    constexpr std::uint64_t kSeed = 0x5eed'f00d;
    constexpr int kMutantsPerDocument = 3000;
    std::mt19937_64 rng(kSeed);
    int accepted = 0;
    int rejected = 0;
    for (const std::string& doc : fuzz_corpus()) {
        ASSERT_NO_THROW(Json::parse(doc)) << doc;
        for (int i = 0; i < kMutantsPerDocument; ++i) {
            const std::string m = mutate(doc, rng);
            Json tree;
            try {
                tree = Json::parse(m);
            } catch (const std::invalid_argument&) {
                ++rejected;
                continue;
            }
            ++accepted;
            for (const Style style : {Style::Compact, Style::Spaced})
                ASSERT_EQ(Json::parse(json::print(tree, style)), tree) << m;
        }
    }
    // Both outcomes must occur, or the harness is not exercising the parser.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace xct::core
