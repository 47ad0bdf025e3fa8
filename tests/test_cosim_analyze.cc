/**
 * @file
 * Unit tests for the cosim_analyze core.
 *
 * Coverage, in order: the token lexer (comments, strings, raw
 * strings, directives, line numbers); every per-file rule on a
 * minimal bad fixture and its idiomatic good twin (immune to
 * strings/comments by construction); `cosim-analyze:` suppressions;
 * rule-set selection; --fix; the cross-TU project passes (layering,
 * include cycles, lock order, allowlist hygiene) driven through
 * in-memory file sets; and a table-driven corpus that the suite
 * asserts covers EVERY rule --list-rules reports.
 *
 * Fixtures are embedded strings analyzed through the pure
 * entry points, so the tests never touch the file system -- except
 * the last, which checks that analyzeTree refuses a root with nothing
 * to judge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/cosim_analyze/analyzer.hh"
#include "tools/cosim_analyze/include_graph.hh"
#include "tools/cosim_analyze/lexer.hh"
#include "tools/cosim_analyze/lock_order.hh"
#include "tools/cosim_analyze/rules.hh"

namespace cosim_analyze {
namespace {

using FileSet = std::vector<std::pair<std::string, std::string>>;

/** All findings for @p content analyzed as @p rel_path. */
std::vector<Finding>
lint(const std::string& rel_path, const std::string& content)
{
    return lintContent(rel_path, content, ruleSetFor(rel_path));
}

/** The rule names found, in reporting order. */
std::vector<std::string>
rulesHit(const std::string& rel_path, const std::string& content)
{
    std::vector<std::string> out;
    for (const Finding& f : lint(rel_path, content))
        out.push_back(f.rule);
    return out;
}

bool
hasRule(const std::vector<std::string>& rules, const std::string& rule)
{
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

/**
 * In-memory mirror of analyzeTree's stage two: per-file findings plus
 * every project pass, with optional analysis.allow content.
 */
std::vector<Finding>
analyzeSet(const FileSet& fileset, const std::string& allow_content = "")
{
    std::vector<FileFacts> files;
    std::vector<Finding> findings;
    for (const auto& [path, content] : fileset) {
        files.push_back(extractFileFacts(path, content));
        findings.insert(findings.end(), files.back().findings.begin(),
                        files.back().findings.end());
    }
    std::vector<AllowEntry> allows = parseAllowFile(
        "tools/cosim_analyze/analysis.allow", allow_content, &findings);
    std::vector<bool> used(allows.size(), false);
    {
        auto f = checkIncludeGraph(files, allows, &used);
        findings.insert(findings.end(), f.begin(), f.end());
    }
    {
        auto f = checkLockOrder(files, allows, &used);
        findings.insert(findings.end(), f.begin(), f.end());
    }
    for (std::size_t i = 0; i < allows.size(); ++i) {
        if (!used[i])
            findings.push_back(
                Finding{"tools/cosim_analyze/analysis.allow",
                        allows[i].line, "allowlist-hygiene",
                        "unused allowlist entry"});
    }
    return findings;
}

std::vector<std::string>
setRules(const FileSet& fileset, const std::string& allow = "")
{
    std::vector<std::string> out;
    for (const Finding& f : analyzeSet(fileset, allow))
        out.push_back(f.rule);
    return out;
}

// ---------------------------------------------------------------------
// The lexer.
// ---------------------------------------------------------------------

TEST(AnalyzeLexer, ClassifiesTokenKinds)
{
    TokenStream ts = lex("int x = 42; // done\n\"str\" 'c'\n");
    ASSERT_GE(ts.tokens.size(), 8u);
    EXPECT_TRUE(ts.tokens[0].isIdent("int"));
    EXPECT_TRUE(ts.tokens[1].isIdent("x"));
    EXPECT_TRUE(ts.tokens[2].isPunct("="));
    EXPECT_EQ(ts.tokens[3].kind, TokKind::Number);
    EXPECT_EQ(ts.tokens[3].text, "42");
    EXPECT_EQ(ts.tokens[5].kind, TokKind::Comment);
    // String/char token text is the *contents*, quotes stripped.
    EXPECT_EQ(ts.tokens[6].kind, TokKind::String);
    EXPECT_EQ(ts.tokens[6].text, "str");
    EXPECT_EQ(ts.tokens[6].line, 2);
    EXPECT_EQ(ts.tokens[7].kind, TokKind::CharLit);
}

TEST(AnalyzeLexer, CodeViewSkipsCommentsAndDirectives)
{
    TokenStream ts = lex("#include <vector>\n"
                         "// comment\n"
                         "int x; /* block */ int y;\n");
    ASSERT_EQ(ts.codeSize(), 6u);
    EXPECT_TRUE(ts.codeTok(0).isIdent("int"));
    EXPECT_TRUE(ts.codeTok(3).isIdent("int"));
}

TEST(AnalyzeLexer, RawStringsSwallowEverything)
{
    TokenStream ts =
        lex("auto s = R\"(rand(); time(nullptr); \" // )\";\n"
            "int after = 0;\n");
    bool found = false;
    for (const Token& t : ts.tokens) {
        if (t.kind == TokKind::String) {
            EXPECT_TRUE(t.rawString);
            EXPECT_EQ(t.text, "rand(); time(nullptr); \" // ");
            found = true;
        }
        // Nothing inside the raw string leaked out as an Ident.
        EXPECT_FALSE(t.isIdent("rand"));
    }
    EXPECT_TRUE(found);
    EXPECT_TRUE(ts.tokens.back().isPunct(";"));
}

TEST(AnalyzeLexer, CustomDelimiterRawString)
{
    TokenStream ts = lex("auto s = R\"xy(a )\" b)xy\";\n");
    ASSERT_GE(ts.codeSize(), 4u);
    EXPECT_EQ(ts.codeTok(3).kind, TokKind::String);
    EXPECT_EQ(ts.codeTok(3).text, "a )\" b");
}

TEST(AnalyzeLexer, DirectivesAreWholeLogicalLines)
{
    TokenStream ts = lex("#define LONG(a, b) \\\n    ((a) + (b))\n"
                         "int x;\n");
    ASSERT_GE(ts.tokens.size(), 1u);
    EXPECT_EQ(ts.tokens[0].kind, TokKind::Directive);
    EXPECT_EQ(directiveKeyword(ts.tokens[0].text), "define");
    // Continuation folded; the body is part of the directive token.
    EXPECT_NE(ts.tokens[0].text.find("(a) + (b)"), std::string::npos);
    EXPECT_TRUE(ts.tokens[1].isIdent("int"));
    EXPECT_EQ(ts.tokens[1].line, 3);
}

TEST(AnalyzeLexer, HashInsideCodeIsNotADirective)
{
    TokenStream ts = lex("int a = x # y;\n"); // not valid C++, still lexes
    for (const Token& t : ts.tokens)
        EXPECT_NE(t.kind, TokKind::Directive);
}

TEST(AnalyzeLexer, FusesScopeAndArrowOnly)
{
    TokenStream ts = lex("a::b->c << d\n");
    ASSERT_EQ(ts.codeSize(), 8u);
    EXPECT_TRUE(ts.codeTok(1).isPunct("::"));
    EXPECT_TRUE(ts.codeTok(3).isPunct("->"));
    // "<<" stays two tokens so template scans can count '<'.
    EXPECT_TRUE(ts.codeTok(5).isPunct("<"));
}

TEST(AnalyzeLexer, ParsesIncludeDirectives)
{
    IncludePath inc =
        parseIncludeDirective("#  include \"mem/dram.hh\"");
    EXPECT_EQ(inc.path, "mem/dram.hh");
    EXPECT_FALSE(inc.angled);
    inc = parseIncludeDirective("#include <vector>");
    EXPECT_EQ(inc.path, "vector");
    EXPECT_TRUE(inc.angled);
    EXPECT_TRUE(parseIncludeDirective("#define X 1").path.empty());
}

// ---------------------------------------------------------------------
// Determinism rules (simulation directories).
// ---------------------------------------------------------------------

TEST(AnalyzeDeterminism, RandFamilyFlaggedInSimCode)
{
    EXPECT_TRUE(hasRule(rulesHit("src/cache/x.cc",
                                 "int f() { return rand(); }\n"),
                        "no-rand"));
    EXPECT_TRUE(hasRule(rulesHit("src/dragonhead/x.cc",
                                 "void g() { srand(1); }\n"),
                        "no-rand"));
    EXPECT_TRUE(hasRule(rulesHit("src/mem/x.cc",
                                 "double d = drand48();\n"),
                        "no-rand"));
    // std::rand through the scope operator is still rand.
    EXPECT_TRUE(hasRule(rulesHit("src/trace/x.cc",
                                 "int v = std::rand();\n"),
                        "no-rand"));
}

TEST(AnalyzeDeterminism, IdentifiersContainingRandAreNotFlagged)
{
    // Substrings must not match: operand, random-looking member names.
    EXPECT_TRUE(rulesHit("src/cache/x.cc",
                         "int operand = 3;\n"
                         "int myrand(int brand) { return brand; }\n")
                    .empty());
}

TEST(AnalyzeDeterminism, MemberCallsNamedLikeLibcAreNotFlagged)
{
    // Token context the line-regex core could not see: obj.time() is
    // some object's method, not ::time().
    EXPECT_TRUE(rulesHit("src/cache/x.cc",
                         "int f(Clock& c) { return c.time(); }\n")
                    .empty());
    EXPECT_TRUE(rulesHit("src/cache/x.cc",
                         "int g(Rng* r) { return r->rand(); }\n")
                    .empty());
}

TEST(AnalyzeDeterminism, WallClockFlaggedInSimCode)
{
    EXPECT_TRUE(hasRule(rulesHit("src/core/x.cc",
                                 "long t = time(nullptr);\n"),
                        "no-time"));
    EXPECT_TRUE(hasRule(rulesHit("src/softsdv/x.cc",
                                 "gettimeofday(&tv, nullptr);\n"),
                        "no-time"));
    EXPECT_TRUE(hasRule(
        rulesHit("src/workloads/x.cc",
                 "auto n = std::chrono::system_clock::now();\n"),
        "no-system-clock"));
    // steady_clock is the sanctioned monotonic clock.
    EXPECT_TRUE(
        rulesHit("src/workloads/x.cc",
                 "auto n = std::chrono::steady_clock::now();\n")
            .empty());
}

TEST(AnalyzeDeterminism, RandomDeviceFlagged)
{
    EXPECT_TRUE(hasRule(rulesHit("src/prefetch/x.cc",
                                 "std::random_device rd;\n"),
                        "no-random-device"));
}

TEST(AnalyzeDeterminism, UnorderedIterationFlagged)
{
    const std::string code =
        "#include <unordered_map>\n"
        "std::unordered_map<int, int> table;\n"
        "int sum() {\n"
        "    int s = 0;\n"
        "    for (const auto& kv : table)\n"
        "        s += kv.second;\n"
        "    return s;\n"
        "}\n";
    auto findings = lint("src/cache/x.cc", code);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-iteration");
    EXPECT_EQ(findings[0].line, 5);
}

TEST(AnalyzeDeterminism, NestedTemplateArgsStillResolveContainerName)
{
    const std::string code =
        "std::unordered_map<int, std::vector<std::pair<int, int>>> m;\n"
        "void f() {\n"
        "    for (auto& kv : m) { (void)kv; }\n"
        "}\n";
    EXPECT_TRUE(hasRule(rulesHit("src/cache/x.cc", code),
                        "unordered-iteration"));
}

TEST(AnalyzeDeterminism, OrderedIterationNotFlagged)
{
    const std::string code =
        "#include <map>\n"
        "std::map<int, int> table;\n"
        "int sum() {\n"
        "    int s = 0;\n"
        "    for (const auto& kv : table)\n"
        "        s += kv.second;\n"
        "    return s;\n"
        "}\n";
    EXPECT_TRUE(lint("src/cache/x.cc", code).empty());
}

TEST(AnalyzeDeterminism, CommentsStringsAndIncludesExempt)
{
    // The tokens appear only in prose, literals, or #include lines;
    // none of them can perturb simulation behaviour.
    const std::string code =
        "#include <ctime>\n"
        "// rand() would break replay here\n"
        "/* time(nullptr) too */\n"
        "const char* kMsg = \"called rand()\";\n";
    EXPECT_TRUE(lint("src/cache/x.cc", code).empty());
}

TEST(AnalyzeDeterminism, RawStringsExempt)
{
    // The regression the lexer port pins: a raw-string usage message
    // mentioning rand( / ofstream / system_clock is prose, not code.
    const std::string code =
        "const char* kHelp = R\"(seed with rand();\n"
        "write std::ofstream logs; read system_clock)\";\n";
    EXPECT_TRUE(lint("src/cache/x.cc", code).empty());
}

TEST(AnalyzeDeterminism, NotAppliedOutsideSimDirs)
{
    // tests/ and src/harness/ may use wall-clock time freely.
    EXPECT_TRUE(rulesHit("tests/x.cc", "long t = time(nullptr);\n")
                    .empty());
    EXPECT_TRUE(
        rulesHit("src/harness/x.cc", "long t = time(nullptr);\n")
            .empty());
}

// ---------------------------------------------------------------------
// Library hygiene rules.
// ---------------------------------------------------------------------

TEST(AnalyzeHygiene, RawNewDeleteFlaggedInLibraryCode)
{
    EXPECT_TRUE(hasRule(rulesHit("src/obs/x.cc",
                                 "int* p = new int(3);\n"),
                        "no-raw-new"));
    EXPECT_TRUE(hasRule(rulesHit("src/obs/x.cc", "delete ptr;\n"),
                        "no-raw-delete"));
}

TEST(AnalyzeHygiene, DeletedFunctionsAreNotRawDelete)
{
    EXPECT_TRUE(
        rulesHit("src/obs/x.cc",
                 "struct S { S(const S&) = delete; };\n")
            .empty());
}

TEST(AnalyzeHygiene, PrintfFlaggedInLibraryButNotHarness)
{
    const std::string code = "void f() { printf(\"x\"); }\n";
    EXPECT_TRUE(hasRule(rulesHit("src/base/x.cc", code), "no-printf"));
    EXPECT_TRUE(rulesHit("src/harness/x.cc", code).empty());
    EXPECT_TRUE(rulesHit("tools/cosim_analyze/x.cc", code).empty());
}

TEST(AnalyzeHygiene, SnprintfIsDeterministicFormattingNotOutput)
{
    EXPECT_TRUE(
        rulesHit("src/base/x.cc",
                 "void f(char* b) { snprintf(b, 8, \"x\"); }\n")
            .empty());
}

TEST(AnalyzeHygiene, IncludeOfNewHeaderIsNotRawNew)
{
    EXPECT_TRUE(rulesHit("src/base/x.cc", "#include <new>\n").empty());
}

TEST(AnalyzeHygiene, RawOfstreamFlaggedOutsideBase)
{
    const std::string code =
        "void f() { std::ofstream out(\"x.csv\"); }\n";
    EXPECT_TRUE(hasRule(rulesHit("src/obs/x.cc", code),
                        "no-raw-ofstream"));
    EXPECT_TRUE(hasRule(rulesHit("src/trace/x.cc", code),
                        "no-raw-ofstream"));
    // base/ holds AtomicFile itself; non-src trees are CLI/test code.
    EXPECT_TRUE(rulesHit("src/base/x.cc", code).empty());
    EXPECT_TRUE(rulesHit("tools/cosim_analyze/x.cc", code).empty());
    EXPECT_TRUE(rulesHit("tests/x.cc", code).empty());
}

TEST(AnalyzeHygiene, OfstreamInCommentsAndIncludesNotFlagged)
{
    EXPECT_TRUE(rulesHit("src/obs/x.cc",
                         "#include <fstream>\n"
                         "// the old std::ofstream path is gone\n"
                         "int myofstream = 0;\n")
                    .empty());
}

// ---------------------------------------------------------------------
// Sampled-simulation rules (plan writers, interval selection).
// ---------------------------------------------------------------------

TEST(AnalyzeSampledPlan, RawIoFlaggedInPlanWriters)
{
    // A file that names the plan schema is a plan writer; its file I/O
    // must go through AtomicFile.
    EXPECT_TRUE(hasRule(
        rulesHit("src/trace/x.cc",
                 "const char* kSchema = \"cosim-plan/1\";\n"
                 "void save() { std::ofstream out(path_); }\n"),
        "plan-atomic-write"));
    EXPECT_TRUE(hasRule(
        rulesHit("src/harness/x.cc",
                 "const char* kSchema = \"cosim-plan/1\";\n"
                 "void save() { std::FILE* f = std::fopen(p, \"w\"); }\n"),
        "plan-atomic-write"));
}

TEST(AnalyzeSampledPlan, FilesOutsideThePlanBusinessAreFine)
{
    // ofstream without the schema mention is no-raw-ofstream's
    // business, not this rule's.
    EXPECT_FALSE(hasRule(
        rulesHit("src/trace/x.cc",
                 "void save() { std::ofstream out(path_); }\n"),
        "plan-atomic-write"));
    // Non-src trees (tests write fixture plans however they like).
    EXPECT_FALSE(hasRule(
        rulesHit("tests/x.cc",
                 "const char* kSchema = \"cosim-plan/1\";\n"
                 "void save() { std::ofstream out(path_); }\n"),
        "plan-atomic-write"));
}

TEST(AnalyzeJournalAppend, RawIoFlaggedInJournalWriters)
{
    // A file that names the journal schema is a journal writer; its
    // records must go through DurableAppendFile.
    EXPECT_TRUE(hasRule(
        rulesHit("src/harness/x.cc",
                 "const char* kSchema = \"cosim-journal/1\";\n"
                 "void log() { std::ofstream out(path_); }\n"),
        "journal-atomic-append"));
    EXPECT_TRUE(hasRule(
        rulesHit("src/harness/x.cc",
                 "const char* kSchema = \"cosim-journal/1\";\n"
                 "void log() { std::FILE* f = std::fopen(p, \"a\"); }\n"),
        "journal-atomic-append"));
    // The plain (truncating, unsynced) appender is exactly the bug the
    // rule exists to catch.
    EXPECT_TRUE(hasRule(
        rulesHit("src/harness/x.cc",
                 "const char* kSchema = \"cosim-journal/1\";\n"
                 "AppendFile file_(path_);\n"),
        "journal-atomic-append"));
}

TEST(AnalyzeJournalAppend, DurableAppendAndOutsidersAreFine)
{
    // The blessed helper is a different identifier, not a match.
    EXPECT_FALSE(hasRule(
        rulesHit("src/harness/x.cc",
                 "const char* kSchema = \"cosim-journal/1\";\n"
                 "DurableAppendFile file_(path_);\n"),
        "journal-atomic-append"));
    // ofstream without the schema mention is no-raw-ofstream's
    // business, not this rule's.
    EXPECT_FALSE(hasRule(
        rulesHit("src/harness/x.cc",
                 "void log() { std::ofstream out(path_); }\n"),
        "journal-atomic-append"));
    // Non-src trees: tests forge corrupt journals with raw I/O on
    // purpose, and the inspector merely reads them.
    EXPECT_FALSE(hasRule(
        rulesHit("tests/x.cc",
                 "const char* kSchema = \"cosim-journal/1\";\n"
                 "void forge() { std::ofstream out(path_); }\n"),
        "journal-atomic-append"));
}

TEST(AnalyzeIntervalWallclock, HostClockFlaggedInSelectionCode)
{
    // steady_clock passes the determinism group but still breaks plan
    // reproducibility inside interval-selection code.
    EXPECT_TRUE(hasRule(
        rulesHit("src/trace/x.cc",
                 "void pick(SamplingPlan& plan) {\n"
                 "    auto t0 = std::chrono::steady_clock::now();\n"
                 "}\n"),
        "interval-wallclock"));
    EXPECT_TRUE(hasRule(
        rulesHit("src/trace/x.cc",
                 "void f(const PlanInterval& iv) { time(nullptr); }\n"),
        "interval-wallclock"));
}

TEST(AnalyzeIntervalWallclock, TimingOutsideSelectionCodeIsFine)
{
    // trace/ files with no interval selection time their own passes
    // (fsb_replay.cc, fsb_capture.cc).
    EXPECT_FALSE(hasRule(
        rulesHit("src/trace/x.cc",
                 "auto t0 = std::chrono::steady_clock::now();\n"),
        "interval-wallclock"));
    // core/cosim.cc times the sampled pass around the selection code;
    // the rule is scoped to src/trace/.
    EXPECT_FALSE(hasRule(
        rulesHit("src/core/x.cc",
                 "void f(const SamplingPlan& p) {\n"
                 "    auto t0 = std::chrono::steady_clock::now();\n"
                 "}\n"),
        "interval-wallclock"));
}

// ---------------------------------------------------------------------
// Mechanical rules.
// ---------------------------------------------------------------------

TEST(AnalyzeMechanical, HeaderGuardMustBeCanonical)
{
    const std::string bad = "#ifndef WRONG_HH\n#define WRONG_HH\n"
                            "#endif // WRONG_HH\n";
    auto findings = lint("src/obs/widget.hh", bad);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "header-guard");

    const std::string good =
        "#ifndef COSIM_OBS_WIDGET_HH\n#define COSIM_OBS_WIDGET_HH\n"
        "#endif // COSIM_OBS_WIDGET_HH\n";
    EXPECT_TRUE(lint("src/obs/widget.hh", good).empty());
}

TEST(AnalyzeMechanical, CanonicalGuardDropsSrcKeepsOtherTrees)
{
    EXPECT_EQ(canonicalGuard("src/obs/json.hh"), "COSIM_OBS_JSON_HH");
    EXPECT_EQ(canonicalGuard("tests/test_util.hh"),
              "COSIM_TESTS_TEST_UTIL_HH");
    EXPECT_EQ(canonicalGuard("tools/cosim_analyze/lexer.hh"),
              "COSIM_TOOLS_COSIM_ANALYZE_LEXER_HH");
}

TEST(AnalyzeMechanical, GuardLookingLinesInsideCommentsIgnored)
{
    // A commented-out guard is not a guard; the real (wrong) one is.
    const std::string code = "/*\n"
                             "#ifndef COSIM_OBS_WIDGET_HH\n"
                             "*/\n"
                             "#ifndef WRONG_HH\n"
                             "#define WRONG_HH\n"
                             "#endif // WRONG_HH\n";
    auto findings = lint("src/obs/widget.hh", code);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "header-guard");
    EXPECT_EQ(findings[0].line, 4);
}

TEST(AnalyzeMechanical, ProjectIncludesUseQuotes)
{
    EXPECT_TRUE(hasRule(rulesHit("src/mem/x.cc",
                                 "#include <cache/cache.hh>\n"),
                        "include-hygiene"));
    EXPECT_TRUE(hasRule(rulesHit("src/mem/x.cc",
                                 "#include \"../cache/cache.hh\"\n"),
                        "include-hygiene"));
    // System and project-quoted includes are fine.
    EXPECT_TRUE(rulesHit("src/mem/x.cc",
                         "#include <vector>\n"
                         "#include \"cache/cache.hh\"\n")
                    .empty());
}

TEST(AnalyzeMechanical, TrailingWhitespaceFlagged)
{
    auto findings = lint("src/mem/x.cc", "int x;  \nint y;\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "trailing-whitespace");
    EXPECT_EQ(findings[0].line, 1);
}

// ---------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------

TEST(AnalyzeSuppression, SameLineAllow)
{
    EXPECT_TRUE(
        lint("src/cache/x.cc",
             "long t = time(nullptr); // cosim-analyze: allow(no-time)\n")
            .empty());
}

TEST(AnalyzeSuppression, PrecedingLineAllow)
{
    EXPECT_TRUE(lint("src/cache/x.cc",
                     "// cosim-analyze: allow(no-time)\n"
                     "long t = time(nullptr);\n")
                    .empty());
}

TEST(AnalyzeSuppression, AllowDoesNotLeakToLaterLines)
{
    auto findings = lint("src/cache/x.cc",
                         "// cosim-analyze: allow(no-time)\n"
                         "long t = time(nullptr);\n"
                         "long u = time(nullptr);\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3);
}

TEST(AnalyzeSuppression, AllowIsRuleSpecific)
{
    // allow(no-rand) must not silence the no-time finding.
    auto rules = rulesHit(
        "src/cache/x.cc",
        "long t = time(nullptr); // cosim-analyze: allow(no-rand)\n");
    EXPECT_TRUE(hasRule(rules, "no-time"));
}

TEST(AnalyzeSuppression, AllowFileCoversWholeFile)
{
    EXPECT_TRUE(lint("src/cache/x.cc",
                     "// cosim-analyze: allow-file(no-time)\n"
                     "long t = time(nullptr);\n"
                     "long u = time(nullptr);\n")
                    .empty());
}

TEST(AnalyzeSuppression, DirectiveInsideBlockCommentCountsItsLine)
{
    // The allow sits on line 2 of a multi-line comment and must cover
    // lines 2-3, not the comment's first line.
    EXPECT_TRUE(lint("src/cache/x.cc",
                     "/* reasons\n"
                     "   cosim-analyze: allow(no-time) */\n"
                     "long t = time(nullptr);\n")
                    .empty());
}

// ---------------------------------------------------------------------
// Rule-set selection.
// ---------------------------------------------------------------------

TEST(AnalyzeRuleSets, SimulationDirsGetDeterminism)
{
    for (const char* dir : {"softsdv", "dragonhead", "cache", "mem",
                            "trace", "core", "workloads", "prefetch"}) {
        RuleSet rules =
            ruleSetFor(std::string("src/") + dir + "/x.cc");
        EXPECT_TRUE(rules.determinism) << dir;
        EXPECT_TRUE(rules.noRawNewDelete) << dir;
    }
}

TEST(AnalyzeRuleSets, BaseAndObsAreLibraryNotSimulation)
{
    // base/ and obs/ host the timing/profiling utilities, so wall-clock
    // reads are legitimate there; library hygiene still applies.
    for (const char* path : {"src/base/x.cc", "src/obs/x.cc"}) {
        RuleSet rules = ruleSetFor(path);
        EXPECT_FALSE(rules.determinism) << path;
        EXPECT_TRUE(rules.noRawNewDelete) << path;
        EXPECT_TRUE(rules.noPrintf) << path;
    }
    EXPECT_FALSE(ruleSetFor("src/base/x.cc").noRawOfstream);
    EXPECT_TRUE(ruleSetFor("src/obs/x.cc").noRawOfstream);
}

TEST(AnalyzeRuleSets, HarnessAndNonSrcTreesAreMechanicalOnly)
{
    for (const char* path :
         {"src/harness/x.cc", "tests/x.cc", "bench/x.cc",
          "examples/x.cc", "tools/cosim_analyze/x.cc"}) {
        RuleSet rules = ruleSetFor(path);
        EXPECT_FALSE(rules.determinism) << path;
        EXPECT_FALSE(rules.noPrintf) << path;
        EXPECT_TRUE(rules.headerGuard) << path;
        EXPECT_TRUE(rules.trailingWhitespace) << path;
    }
}

// ---------------------------------------------------------------------
// Fixing.
// ---------------------------------------------------------------------

TEST(AnalyzeFix, RewritesGuardIncludesAndWhitespace)
{
    const std::string before = "#ifndef WRONG_HH\n"
                               "#define WRONG_HH\n"
                               "#include <cache/cache.hh>\n"
                               "int x;  \n"
                               "#endif // WRONG_HH\n";
    const RuleSet rules = ruleSetFor("src/cache/probe.hh");
    const std::string after =
        fixContent("src/cache/probe.hh", before, rules);
    EXPECT_EQ(after, "#ifndef COSIM_CACHE_PROBE_HH\n"
                     "#define COSIM_CACHE_PROBE_HH\n"
                     "#include \"cache/cache.hh\"\n"
                     "int x;\n"
                     "#endif // COSIM_CACHE_PROBE_HH\n");
    EXPECT_TRUE(lint("src/cache/probe.hh", after).empty());
}

TEST(AnalyzeFix, IsIdempotent)
{
    const std::string before = "#ifndef WRONG_HH\n"
                               "#define WRONG_HH\n"
                               "#include <mem/dram.hh>\n"
                               "#endif\n";
    const RuleSet rules = ruleSetFor("src/mem/probe.hh");
    const std::string once =
        fixContent("src/mem/probe.hh", before, rules);
    EXPECT_EQ(fixContent("src/mem/probe.hh", once, rules), once);
}

TEST(AnalyzeFix, DoesNotTouchNonMechanicalFindings)
{
    const std::string before = "long t = time(nullptr);\n";
    const RuleSet rules = ruleSetFor("src/cache/x.cc");
    EXPECT_EQ(fixContent("src/cache/x.cc", before, rules), before);
}

TEST(AnalyzeFix, DoesNotRewriteDirectiveLookingTextInRawStrings)
{
    // An include-looking line inside a raw string is data.
    const std::string before =
        "const char* kDoc = R\"(\n"
        "#include <cache/cache.hh>\n"
        ")\";\n";
    const RuleSet rules = ruleSetFor("src/cache/x.cc");
    EXPECT_EQ(fixContent("src/cache/x.cc", before, rules), before);
}

TEST(AnalyzeFindings, FormatIsFileLineRuleMessage)
{
    auto findings = lint("src/cache/x.cc", "int v = rand();\n");
    ASSERT_EQ(findings.size(), 1u);
    const std::string text = findings[0].format();
    EXPECT_EQ(text.rfind("src/cache/x.cc:1: no-rand: ", 0), 0u) << text;
}

// ---------------------------------------------------------------------
// Project passes: the table-driven corpus. Each case names the rule it
// exercises, a bad file set that must fire it and a good twin that
// must not; a final test asserts the corpus plus the per-file tests
// above cover every rule --list-rules reports.
// ---------------------------------------------------------------------

struct CorpusCase
{
    const char* rule;
    FileSet bad;
    FileSet good;
    std::string allow = {}; ///< for both sets
};

const char* kGuardedHeaderA =
    "#ifndef COSIM_MEM_UP_HH\n#define COSIM_MEM_UP_HH\n"
    "#include \"core/cosim.hh\"\n#endif // COSIM_MEM_UP_HH\n";

std::vector<CorpusCase>
corpus()
{
    std::vector<CorpusCase> cases;

    cases.push_back(
        {"layer-violation",
         {{"src/mem/up.hh", kGuardedHeaderA}},
         {{"src/core/down.hh",
           "#ifndef COSIM_CORE_DOWN_HH\n#define COSIM_CORE_DOWN_HH\n"
           "#include \"mem/dram.hh\"\n#endif // COSIM_CORE_DOWN_HH\n"}}});

    // obs is special-cased on both sides of the gate.
    cases.push_back(
        {"layer-violation",
         {{"src/obs/peek.hh",
           "#ifndef COSIM_OBS_PEEK_HH\n#define COSIM_OBS_PEEK_HH\n"
           "#include \"mem/dram.hh\"\n#endif // COSIM_OBS_PEEK_HH\n"}},
         {{"src/mem/instrumented.hh",
           "#ifndef COSIM_MEM_INSTRUMENTED_HH\n"
           "#define COSIM_MEM_INSTRUMENTED_HH\n"
           "#include \"obs/trace_session.hh\"\n"
           "#include \"base/logging.hh\"\n"
           "#endif // COSIM_MEM_INSTRUMENTED_HH\n"}}});

    cases.push_back(
        {"include-cycle",
         {{"src/base/ring_a.hh",
           "#ifndef COSIM_BASE_RING_A_HH\n#define COSIM_BASE_RING_A_HH\n"
           "#include \"base/ring_b.hh\"\n#endif // COSIM_BASE_RING_A_HH\n"},
          {"src/base/ring_b.hh",
           "#ifndef COSIM_BASE_RING_B_HH\n#define COSIM_BASE_RING_B_HH\n"
           "#include \"base/ring_a.hh\"\n#endif // COSIM_BASE_RING_B_HH\n"}},
         {{"src/base/chain_a.hh",
           "#ifndef COSIM_BASE_CHAIN_A_HH\n#define COSIM_BASE_CHAIN_A_HH\n"
           "#include \"base/chain_b.hh\"\n#endif // COSIM_BASE_CHAIN_A_HH\n"},
          {"src/base/chain_b.hh",
           "#ifndef COSIM_BASE_CHAIN_B_HH\n#define COSIM_BASE_CHAIN_B_HH\n"
           "#endif // COSIM_BASE_CHAIN_B_HH\n"}}});

    const char* lock_cycle_bad =
        "struct Left { Mutex leftMutex_; };\n"
        "struct Right { Mutex rightMutex_; };\n"
        "void ab(Left& l, Right& r) {\n"
        "    LockGuard a(l.leftMutex_);\n"
        "    LockGuard b(r.rightMutex_);\n"
        "}\n"
        "void ba(Left& l, Right& r) {\n"
        "    LockGuard a(r.rightMutex_);\n"
        "    LockGuard b(l.leftMutex_);\n"
        "}\n";
    const char* lock_cycle_good =
        "struct Left { Mutex leftMutex_; };\n"
        "struct Right { Mutex rightMutex_; };\n"
        "void ab(Left& l, Right& r) {\n"
        "    LockGuard a(l.leftMutex_);\n"
        "    LockGuard b(r.rightMutex_);\n"
        "}\n"
        "void ab2(Left& l, Right& r) {\n"
        "    LockGuard a(l.leftMutex_);\n"
        "    LockGuard b(r.rightMutex_);\n"
        "}\n";
    cases.push_back({"lock-order-cycle",
                     {{"src/base/two_orders.cc", lock_cycle_bad}},
                     {{"src/base/one_order.cc", lock_cycle_good}}});

    // Cross-TU variant: the cycle only exists through a call made
    // while holding a lock, with the callee defined in another file.
    cases.push_back(
        {"lock-order-cycle",
         {{"src/base/holder.cc",
           "struct Holder { Mutex holderMutex_; };\n"
           "void takeOther();\n"
           "void outer(Holder& h) {\n"
           "    LockGuard g(h.holderMutex_);\n"
           "    takeOther();\n"
           "}\n"},
          {"src/base/other.cc",
           "struct Other { Mutex otherMutex_; };\n"
           "struct Holder;\n"
           "void backIn(Holder& h);\n"
           "void takeOther() {\n"
           "    Other o;\n"
           "    LockGuard g(o.otherMutex_);\n"
           "    backIn(held_);\n"
           "}\n"
           "void backIn(Holder& h) {\n"
           "    LockGuard g(h.holderMutex_);\n"
           "}\n"}},
         {{"src/base/callee_no_lock.cc",
           "struct Holder { Mutex holderMutex_; };\n"
           "void logOnly();\n"
           "void outer(Holder& h) {\n"
           "    LockGuard g(h.holderMutex_);\n"
           "    logOnly();\n"
           "}\n"
           "void logOnly() { int x = 0; (void)x; }\n"}}});

    cases.push_back(
        {"allowlist-hygiene",
         // Unused and justification-less entries both fire.
         {{"src/base/empty.cc", "int x = 0;\n"}},
         {{"src/mem/up.hh", kGuardedHeaderA}},
         "layering mem -> core: replay shim, scheduled for removal\n"});

    return cases;
}

TEST(AnalyzeCorpus, EveryBadSetFiresItsRuleEveryGoodSetDoesNot)
{
    for (const CorpusCase& c : corpus()) {
        EXPECT_TRUE(hasRule(setRules(c.bad, c.allow), c.rule))
            << "corpus bad set failed to fire " << c.rule;
        EXPECT_FALSE(hasRule(setRules(c.good, c.allow), c.rule))
            << "corpus good set wrongly fired " << c.rule;
    }
}

TEST(AnalyzeCorpus, LayeringAllowlistEntryExcusesTheEdge)
{
    const FileSet bad = {{"src/mem/up.hh", kGuardedHeaderA}};
    EXPECT_TRUE(hasRule(setRules(bad), "layer-violation"));
    auto rules = setRules(
        bad, "layering mem -> core: replay shim, scheduled for removal\n");
    EXPECT_FALSE(hasRule(rules, "layer-violation"));
    // The entry matched, so no unused-entry hygiene finding either.
    EXPECT_FALSE(hasRule(rules, "allowlist-hygiene"));
}

TEST(AnalyzeCorpus, MalformedAllowEntriesFlagged)
{
    std::vector<Finding> findings;
    auto entries = parseAllowFile("tools/cosim_analyze/analysis.allow",
                                  "layering mem -> core\n"      // no just.
                                  "teleport a -> b: because\n"  // bad pass
                                  "layering mem core: text\n",  // no arrow
                                  &findings);
    EXPECT_TRUE(entries.empty());
    ASSERT_EQ(findings.size(), 3u);
    for (const Finding& f : findings)
        EXPECT_EQ(f.rule, "allowlist-hygiene");
}

TEST(AnalyzeCorpus, WellFormedAllowEntryParses)
{
    std::vector<Finding> findings;
    auto entries = parseAllowFile(
        "tools/cosim_analyze/analysis.allow",
        "# comment\n"
        "lock-order A::m_ -> B::n_: B is only reachable from A\n",
        &findings);
    EXPECT_TRUE(findings.empty());
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].pass, "lock-order");
    EXPECT_EQ(entries[0].from, "A::m_");
    EXPECT_EQ(entries[0].to, "B::n_");
    EXPECT_EQ(entries[0].justification, "B is only reachable from A");
    EXPECT_EQ(entries[0].line, 2);
}

TEST(AnalyzeLockOrder, SelfDeadlockReported)
{
    const FileSet files = {
        {"src/base/self.cc",
         "struct Widget { Mutex widgetMutex_; };\n"
         "void inner(Widget& w) { LockGuard g(w.widgetMutex_); }\n"
         "void outer(Widget& w) {\n"
         "    LockGuard g(w.widgetMutex_);\n"
         "    inner(w);\n"
         "}\n"}};
    auto rules = setRules(files);
    EXPECT_TRUE(hasRule(rules, "lock-order-cycle"));
}

TEST(AnalyzeLockOrder, RequiresAnnotationMeansHeldNotReacquired)
{
    // A REQUIRES callee does not re-acquire: no self-deadlock.
    const FileSet files = {
        {"src/base/annotated.cc",
         "struct Widget { Mutex widgetMutex_; };\n"
         "void inner(Widget& w) REQUIRES(w.widgetMutex_);\n"
         "void inner(Widget& w) { int x = 0; (void)x; }\n"
         "void outer(Widget& w) {\n"
         "    LockGuard g(w.widgetMutex_);\n"
         "    inner(w);\n"
         "}\n"}};
    EXPECT_FALSE(hasRule(setRules(files), "lock-order-cycle"));
}

TEST(AnalyzeLockOrder, ScopeEndsReleaseTheGuard)
{
    // The two guards live in sibling scopes: never held together.
    const FileSet files = {
        {"src/base/scoped.cc",
         "struct Pair { Mutex firstMutex_; Mutex secondMutex_; };\n"
         "void f(Pair& p) {\n"
         "    { LockGuard a(p.firstMutex_); }\n"
         "    { LockGuard b(p.secondMutex_); }\n"
         "}\n"
         "void g(Pair& p) {\n"
         "    { LockGuard a(p.secondMutex_); }\n"
         "    { LockGuard b(p.firstMutex_); }\n"
         "}\n"}};
    EXPECT_FALSE(hasRule(setRules(files), "lock-order-cycle"));
}

TEST(AnalyzeLockOrder, SharedMemberNamesStayFileLocal)
{
    // Both classes name their mutex "mutex_": the resolver must not
    // merge them into one lock (which would fabricate a self-cycle).
    const FileSet files = {
        {"src/base/ambiguous.cc",
         "struct A { Mutex mutex_; };\n"
         "struct B { Mutex mutex_; };\n"
         "void f(A& a, B& b) {\n"
         "    LockGuard ga(a.mutex_);\n"
         "    LockGuard gb(b.mutex_);\n"
         "}\n"}};
    EXPECT_FALSE(hasRule(setRules(files), "lock-order-cycle"));
}

TEST(AnalyzeIncludeGraph, ModuleRanksMatchTheDeclaredOrder)
{
    EXPECT_EQ(moduleOf("src/mem/dram.cc"), "mem");
    EXPECT_EQ(moduleOf("tests/x.cc"), "");
    EXPECT_LT(moduleRank("base"), moduleRank("mem"));
    EXPECT_LT(moduleRank("mem"), moduleRank("cache"));
    EXPECT_LT(moduleRank("cache"), moduleRank("prefetch"));
    EXPECT_LT(moduleRank("prefetch"), moduleRank("dragonhead"));
    EXPECT_LT(moduleRank("dragonhead"), moduleRank("softsdv"));
    EXPECT_LT(moduleRank("softsdv"), moduleRank("trace"));
    EXPECT_LT(moduleRank("trace"), moduleRank("workloads"));
    EXPECT_LT(moduleRank("workloads"), moduleRank("core"));
    EXPECT_LT(moduleRank("core"), moduleRank("harness"));
    EXPECT_EQ(moduleRank("obs"), -1); // special-cased, not ranked
}

// ---------------------------------------------------------------------
// --list-rules completeness: every rule has a description, and every
// rule is exercised by this suite (per-file tests above or the corpus).
// ---------------------------------------------------------------------

TEST(AnalyzeRuleTable, EveryRuleHasADescription)
{
    auto all = allRules();
    EXPECT_GE(all.size(), 19u);
    std::set<std::string> unique(all.begin(), all.end());
    EXPECT_EQ(unique.size(), all.size()) << "duplicate rule names";
    for (const std::string& r : all)
        EXPECT_FALSE(ruleDescription(r).empty()) << r;
    EXPECT_TRUE(ruleDescription("no-such-rule").empty());
}

TEST(AnalyzeRuleTable, SuiteCoversEveryRule)
{
    // Rules exercised by dedicated per-file tests above.
    std::set<std::string> covered = {
        "no-rand",        "no-time",         "no-system-clock",
        "no-random-device", "unordered-iteration", "no-raw-new",
        "no-raw-delete",  "no-printf",       "no-raw-ofstream",
        "plan-atomic-write", "journal-atomic-append",
        "interval-wallclock", "header-guard", "include-hygiene",
        "trailing-whitespace",
    };
    for (const CorpusCase& c : corpus())
        covered.insert(c.rule);
    for (const std::string& r : allRules())
        EXPECT_TRUE(covered.count(r) > 0)
            << "rule '" << r
            << "' is listed by --list-rules but exercised by no test";
}

TEST(AnalyzeTree, RefusesARootWithNothingToJudge)
{
    // A mistyped --root, or a checkout that left the tree elsewhere,
    // must not pass the gate as a clean tree.
    const std::string empty =
        ::testing::TempDir() + "cosim_analyze_empty_root";
    std::filesystem::create_directories(empty + "/src");
    for (const std::string& root : {empty + "/missing", empty}) {
        AnalyzeOptions opts;
        opts.root = root;
        const AnalyzeResult res = analyzeTree(opts);
        EXPECT_TRUE(res.ioError) << root;
        EXPECT_EQ(res.filesScanned, 0) << root;
        ASSERT_EQ(res.errors.size(), 1u) << root;
        EXPECT_NE(res.errors[0].find("'" + root + "'"), std::string::npos)
            << res.errors[0];
    }
}

} // namespace
} // namespace cosim_analyze
