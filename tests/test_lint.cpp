// xct_lint behaviour: each bad_* fixture under tests/lint_fixtures/
// carries `// LINT: <rule>` annotations on its violating lines, and the
// suite checks the linter reports exactly the annotated (line, rule)
// set — no magic violation counts to keep in sync with fixture edits.
// The clean fixture and the real tree stay silent, the names registry
// parses with both exact and prefix entries, and the whole-program rules
// (lockorder, deadname) are exercised on synthetic file sets.
//
// XCT_LINT_REPO_ROOT is injected by tests/CMakeLists.txt so the suite
// works from any build directory.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace {

using xct_lint::LockEdge;
using xct_lint::Registry;
using xct_lint::Violation;

std::string repo_root()
{
    return XCT_LINT_REPO_ROOT;
}

std::string slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

Registry real_registry()
{
    return xct_lint::parse_registry(slurp(repo_root() + "/src/core/names.hpp"));
}

/// (line, rule) — the comparable core of a Violation / an annotation.
using Mark = std::pair<int, std::string>;

/// Parse `// LINT: ruleA ruleB` annotations out of raw fixture source.
/// Each rule token contributes one expected violation on that line, so a
/// line with two hits of the same rule is annotated `// LINT: names names`.
std::vector<Mark> annotations(const std::string& source)
{
    std::vector<Mark> out;
    std::istringstream in(source);
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        const std::size_t at = text.find("// LINT:");
        if (at == std::string::npos) continue;
        std::istringstream rules(text.substr(at + 8));
        std::string rule;
        while (rules >> rule) {
            // Stop at the first token that is not a bare rule word — the
            // annotation may be followed by ordinary prose.
            if (!std::all_of(rule.begin(), rule.end(),
                             [](char c) { return c >= 'a' && c <= 'z'; }))
                break;
            out.emplace_back(line, rule);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Mark> marks(const std::vector<Violation>& vs)
{
    std::vector<Mark> out;
    for (const auto& v : vs) out.emplace_back(v.line, v.rule);
    std::sort(out.begin(), out.end());
    return out;
}

/// Run ALL rules (per-file + whole-program) over one fixture and check
/// the reported violations are exactly the fixture's annotations.
void expect_matches_annotations(const std::string& name)
{
    const std::string rel = "tests/lint_fixtures/" + name;
    const std::string source = slurp(repo_root() + "/" + rel);
    const auto vs = xct_lint::lint_files(repo_root(), {{rel, source}});
    EXPECT_EQ(marks(vs), annotations(source)) << xct_lint::format(vs);
}

TEST(LintRegistry, ParsesExactAndPrefixEntries)
{
    const Registry reg = real_registry();
    EXPECT_FALSE(reg.exact.empty());
    EXPECT_FALSE(reg.prefixes.empty());
    // Exact entries.
    EXPECT_TRUE(reg.allows("fft.transforms"));
    EXPECT_TRUE(reg.allows("faults.injected"));
    EXPECT_TRUE(reg.allows("rank.dropout"));
    // The serving layer's fault sites and metrics.
    EXPECT_TRUE(reg.allows("serve.journal.append"));
    EXPECT_TRUE(reg.allows("serve.accept"));
    EXPECT_TRUE(reg.allows("serve.shed"));
    EXPECT_TRUE(reg.allows("serve.reject.queue_full"));  // prefix entry
    // Prefix entries admit any non-empty suffix...
    EXPECT_TRUE(reg.allows("pipeline.stage.filter.seconds"));
    EXPECT_TRUE(reg.allows("minimpi.reduce_sum.calls"));
    // ...but not the bare prefix-with-nothing-after and not strangers.
    EXPECT_FALSE(reg.allows("bogus.metric"));
    EXPECT_FALSE(reg.allows("pipelinestage"));
}

TEST(LintFixtures, BadNamesMatchesAnnotations)
{
    expect_matches_annotations("bad_names.cpp");
}

TEST(LintFixtures, BadRawmemMatchesAnnotations)
{
    expect_matches_annotations("bad_rawmem.cpp");
}

TEST(LintRawmem, OnlyTheLaneWrapperMayReinterpret)
{
    // src/core/simd.hpp may reinterpret (typed-pointer intrinsics), but
    // may not allocate; every other file may do neither.
    const std::string source = slurp(repo_root() + "/tests/lint_fixtures/bad_rawmem.cpp");
    const auto in_simd = xct_lint::lint_files(repo_root(), {{"src/core/simd.hpp", source}});
    ASSERT_EQ(in_simd.size(), 2u) << xct_lint::format(in_simd);
    for (const auto& v : in_simd) EXPECT_EQ(v.message.find("reinterpret_cast"), std::string::npos);
    const auto elsewhere = xct_lint::lint_files(repo_root(), {{"src/core/pages.cpp", source}});
    EXPECT_EQ(elsewhere.size(), 3u) << xct_lint::format(elsewhere);
}

TEST(LintFixtures, BadIntloopMatchesAnnotations)
{
    expect_matches_annotations("bad_intloop.cpp");
}

TEST(LintFixtures, BadMutexMatchesAnnotations)
{
    expect_matches_annotations("bad_mutex.cpp");
}

TEST(LintFixtures, BadIdsMatchesAnnotations)
{
    expect_matches_annotations("bad_ids.cpp");
}

TEST(LintFixtures, BadLockorderMatchesAnnotations)
{
    expect_matches_annotations("bad_lockorder.cpp");
}

TEST(LintFixtures, BadJsonMatchesAnnotations)
{
    expect_matches_annotations("bad_json.cpp");
}

TEST(LintFixtures, CleanFixtureIsSilent)
{
    expect_matches_annotations("clean.cpp");  // zero annotations == zero violations
}

TEST(LintTree, RealTreeIsClean)
{
    const auto vs = xct_lint::lint_tree(repo_root(), {"src", "tools", "bench"});
    EXPECT_TRUE(vs.empty()) << xct_lint::format(vs);
}

TEST(LintCompileDb, SyntheticDbOverRealTuIsClean)
{
    // A one-entry compile database pointing at a real TU: the driver must
    // parse it, resolve the TU's quoted includes, and come back clean.
    const std::filesystem::path db =
        std::filesystem::path(testing::TempDir()) / "xct_lint_compile_commands.json";
    {
        std::ofstream f(db);
        f << "[\n  {\n    \"directory\": \"" << repo_root() << "\",\n"
          << "    \"command\": \"c++ -c src/core/decompose.cpp\",\n"
          << "    \"file\": \"src/core/decompose.cpp\"\n  }\n]\n";
    }
    const auto vs = xct_lint::lint_compile_db(repo_root(), db);
    EXPECT_TRUE(vs.empty()) << xct_lint::format(vs);
    std::filesystem::remove(db);
}

TEST(LintRules, CommentsAndStringsDoNotTrip)
{
    const Registry reg = real_registry();
    const std::string src =
        "// new malloc reinterpret_cast std::mutex\n"
        "/* for (int q = 0; q < 4; ++q) s += a[q * n]; */\n"
        "const char* doc = \"counter(\\\"totally.fake\\\") uses new std::mutex\";\n";
    const auto vs = xct_lint::lint_source("x.cpp", src, reg);
    EXPECT_TRUE(vs.empty()) << xct_lint::format(vs);
}

TEST(LintRules, NamesConstantArgumentsAreAccepted)
{
    const Registry reg = real_registry();
    // Non-literal arguments (names:: constants, composed strings) are the
    // blessed pattern — the rule only judges raw literals.
    const std::string src =
        "void f(R& reg) {\n"
        "    reg.counter(names::kMetricFftTransforms).add(1);\n"
        "    reg.counter(names::kMetricPipelineStagePrefix + stage + \".seconds\").add(1);\n"
        "}\n";
    const auto vs = xct_lint::lint_source("x.cpp", src, reg);
    EXPECT_TRUE(vs.empty()) << xct_lint::format(vs);
}

TEST(LintRules, IdsRuleRespectsMinimpiBoundary)
{
    const Registry reg = real_registry();
    // minimpi speaks raw world ranks (like MPI itself) and is whitelisted;
    // the same declaration anywhere else must use the strong types.
    const std::string src = "void send(index_t rank, int tag);\n";
    EXPECT_TRUE(xct_lint::lint_source("src/minimpi/comm.cpp", src, reg).empty());
    const auto vs = xct_lint::lint_source("src/recon/distributed.cpp", src, reg);
    ASSERT_EQ(vs.size(), static_cast<std::size_t>(1)) << xct_lint::format(vs);
    EXPECT_EQ(vs[0].rule, "ids");
}

TEST(LintLockGraph, NormalisationUnifiesArrowAndDot)
{
    // st->m (callee) and st.m (caller) are the same mutex: the two edges
    // below close a cycle only because normalisation maps them to one node.
    const std::vector<LockEdge> edges = {
        {"st.a", "st->b", "f.cpp", 10},
        {"st->b", "st.a", "f.cpp", 20},
    };
    const auto vs = xct_lint::check_lock_graph(edges, {});
    ASSERT_EQ(vs.size(), static_cast<std::size_t>(1)) << xct_lint::format(vs);
    EXPECT_EQ(vs[0].rule, "lockorder");
}

TEST(LintLockGraph, AcyclicGraphAndWhitelistedCycleAreAccepted)
{
    const std::vector<LockEdge> chain = {
        {"a", "b", "f.cpp", 1},
        {"b", "c", "f.cpp", 2},
        {"a", "c", "f.cpp", 3},
    };
    EXPECT_TRUE(xct_lint::check_lock_graph(chain, {}).empty());

    const std::vector<LockEdge> cycle = {
        {"a", "b", "f.cpp", 1},
        {"b", "a", "f.cpp", 2},
    };
    EXPECT_FALSE(xct_lint::check_lock_graph(cycle, {}).empty());
    // A cycle made entirely of reviewed edges is accepted; comments and
    // blank lines in the whitelist are ignored.
    const std::vector<std::string> allow = {
        "# reviewed: handshake between a and b",
        "",
        "a -> b",
        "b -> a",
    };
    EXPECT_TRUE(xct_lint::check_lock_graph(cycle, allow).empty());
    // Whitelisting only one direction is not enough.
    EXPECT_FALSE(xct_lint::check_lock_graph(cycle, {"a -> b"}).empty());
}

TEST(LintDeadname, UnreferencedRegistrationIsReported)
{
    // Whole-program rule, so it needs lint_files with names.hpp in the
    // set: kStale is registered but never referenced by the other file.
    const xct_lint::FileSet set = {
        {"src/core/names.hpp",
         "namespace xct::names {\n"
         "inline constexpr const char* kUsed = \"fft.transforms\";\n"
         "inline constexpr const char* kStale = \"faults.injected\";\n"
         "}\n"},
        {"src/foo.cpp", "const char* f() { return xct::names::kUsed; }\n"},
    };
    const auto vs = xct_lint::lint_files(repo_root(), set);
    ASSERT_EQ(vs.size(), static_cast<std::size_t>(1)) << xct_lint::format(vs);
    EXPECT_EQ(vs[0].rule, "deadname");
    EXPECT_EQ(vs[0].file, "src/core/names.hpp");
    EXPECT_EQ(vs[0].line, 3);
}

}  // namespace
