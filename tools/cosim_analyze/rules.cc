#include "tools/cosim_analyze/rules.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace cosim_analyze {

namespace {

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string
trim(const std::string& s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitLines(const std::string& content)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start <= content.size()) {
        std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos) {
            if (start < content.size())
                lines.push_back(content.substr(start));
            break;
        }
        lines.push_back(content.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

bool
isHeaderPath(const std::string& rel_path)
{
    return endsWith(rel_path, ".hh") || endsWith(rel_path, ".hpp");
}

const char* kProjectIncludeDirs[] = {
    "base/",   "cache/",   "core/",     "dragonhead/", "harness/",
    "mem/",    "obs/",     "prefetch/", "softsdv/",    "trace/",
    "workloads/", "tools/", "tests/",
};

bool
isProjectIncludePath(const std::string& path)
{
    for (const char* dir : kProjectIncludeDirs) {
        if (startsWith(path, dir))
            return true;
    }
    return false;
}

/** The rule table: name, description, per-file or project pass. */
struct RuleInfo
{
    const char* name;
    const char* description;
};

const RuleInfo kRules[] = {
    // Determinism (simulation directories).
    {"no-rand", "libc rand()/srand()/drand48() in simulation code; "
                "cosim::Rng (base/random.hh) is the sanctioned source"},
    {"no-time", "wall-clock time()/gettimeofday()/clock_gettime() in "
                "simulation code breaks replay bit-identity"},
    {"no-system-clock", "std::chrono::system_clock in simulation code; "
                        "use steady_clock for host timing"},
    {"no-random-device", "std::random_device is host entropy; use "
                         "cosim::Rng (base/random.hh)"},
    {"unordered-iteration", "range-for over std::unordered_* has "
                            "host-dependent order"},
    // Library hygiene.
    {"no-raw-new", "raw new in library code; use std::make_unique or a "
                   "container"},
    {"no-raw-delete", "raw delete in library code; use std::unique_ptr "
                      "ownership"},
    {"no-printf", "printf-family output in library code; use "
                  "base/logging.hh or return strings"},
    {"no-raw-ofstream", "std::ofstream in library code; artifacts go "
                        "through AtomicFile (base/atomic_file.hh)"},
    {"plan-atomic-write", "sampling-plan writers must use AtomicFile so "
                          "a failed run never leaves a torn plan"},
    {"journal-atomic-append", "sweep-journal records must go through "
                              "DurableAppendFile so a crash can only "
                              "tear the final line"},
    {"interval-wallclock", "host clock in interval-selection code; plan "
                           "generation must be pure in the sample "
                           "series and seed"},
    // Mechanical.
    {"header-guard", "header guards must be COSIM_<PATH>_HH (fixable "
                     "with --fix)"},
    {"include-hygiene", "project headers use \"quotes\" and repo-root-"
                        "relative paths (fixable with --fix)"},
    {"trailing-whitespace", "trailing whitespace (fixable with --fix)"},
    // Project passes (cross-TU).
    {"layer-violation", "#include edge violates the declared module "
                        "layering DAG (see tools/cosim_analyze/"
                        "analysis.allow for justified exceptions)"},
    {"include-cycle", "cyclic #include chain between project headers"},
    {"lock-order-cycle", "cycle in the global lock-acquisition graph: "
                         "a potential static deadlock"},
    {"allowlist-hygiene", "analysis.allow entry is malformed, lacks a "
                          "justification, or no longer matches any "
                          "finding"},
};

struct CallRule
{
    const char* rule;
    const char* name;
    const char* message;
};

const CallRule kDeterminismCalls[] = {
    {"no-rand", "rand", "libc rand() is nondeterministic across hosts; "
                        "use cosim::Rng (base/random.hh)"},
    {"no-rand", "srand", "seed state hidden in libc; use cosim::Rng"},
    {"no-rand", "drand48", "use cosim::Rng (base/random.hh)"},
    {"no-rand", "lrand48", "use cosim::Rng (base/random.hh)"},
    {"no-rand", "mrand48", "use cosim::Rng (base/random.hh)"},
    {"no-time", "time", "wall-clock time() in simulation code breaks "
                        "replay bit-identity"},
    {"no-time", "gettimeofday", "wall-clock in simulation code breaks "
                                "replay bit-identity"},
    {"no-time", "clock_gettime", "wall-clock in simulation code breaks "
                                 "replay bit-identity"},
    {"no-time", "localtime", "calendar time in simulation code breaks "
                             "replay bit-identity"},
    {"no-time", "gmtime", "calendar time in simulation code breaks "
                          "replay bit-identity"},
};

// Stream-output calls only: snprintf/vsnprintf into a caller buffer is
// deterministic string formatting, not the bypass-the-logging-layer
// hazard this rule exists for.
const CallRule kPrintfCalls[] = {
    {"no-printf", "printf", ""},   {"no-printf", "fprintf", ""},
    {"no-printf", "vprintf", ""},  {"no-printf", "vfprintf", ""},
    {"no-printf", "puts", ""},     {"no-printf", "fputs", ""},
    {"no-printf", "putchar", ""},
};

/** Walker over the code-token view with bounds-safe neighbors. */
struct CodeView
{
    const TokenStream& ts;

    std::size_t size() const { return ts.code.size(); }
    const Token& at(std::size_t i) const { return ts.codeTok(i); }

    /** True when code token @p i exists and equals (kind, text). */
    bool
    is(std::size_t i, TokKind kind, const char* text) const
    {
        return i < size() && at(i).is(kind, text);
    }

    bool
    isPunct(std::size_t i, const char* text) const
    {
        return is(i, TokKind::Punct, text);
    }
};

/**
 * True when code token @p i is a call of @p name: Ident(name) with
 * '(' next. A preceding "::" qualifier is allowed (std::rand is still
 * rand); a preceding '.'/'->' is a member call of some other class'
 * method and does not match.
 */
bool
isCallOf(const CodeView& cv, std::size_t i, const char* name)
{
    if (!cv.at(i).isIdent(name))
        return false;
    if (!cv.isPunct(i + 1, "("))
        return false;
    if (i > 0 && (cv.isPunct(i - 1, ".") || cv.isPunct(i - 1, "->")))
        return false;
    return true;
}

/** True when code token @p i is a plain use of identifier @p name
 * (member access through '.'/'->' still counts: tv.time is not a use
 * of ::time, but rules like no-system-clock key on the type name). */
bool
isIdentUse(const CodeView& cv, std::size_t i, const char* name)
{
    return cv.at(i).isIdent(name);
}

/** Skip a balanced template argument list: code index of the matching
 * '>' for the '<' at @p open, or npos. */
std::size_t
matchAngle(const CodeView& cv, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < cv.size(); ++i) {
        if (cv.isPunct(i, "<"))
            ++depth;
        else if (cv.isPunct(i, ">") && --depth == 0)
            return i;
        else if (cv.isPunct(i, ";")) // statement ended: not a template
            return std::string::npos;
    }
    return std::string::npos;
}

/** Code index of the ')' matching the '(' at @p open, or npos. */
std::size_t
matchParen(const CodeView& cv, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < cv.size(); ++i) {
        if (cv.isPunct(i, "("))
            ++depth;
        else if (cv.isPunct(i, ")") && --depth == 0)
            return i;
    }
    return std::string::npos;
}

/** Names declared as std::unordered_{map,set,...} variables/fields. */
std::set<std::string>
unorderedContainerNames(const CodeView& cv)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < cv.size(); ++i) {
        const Token& t = cv.at(i);
        if (t.kind != TokKind::Ident ||
            !startsWith(t.text, "unordered_"))
            continue;
        if (t.text != "unordered_map" && t.text != "unordered_set" &&
            t.text != "unordered_multimap" &&
            t.text != "unordered_multiset")
            continue;
        if (!cv.isPunct(i + 1, "<"))
            continue;
        std::size_t close = matchAngle(cv, i + 1);
        if (close == std::string::npos)
            continue;
        std::size_t j = close + 1;
        while (j < cv.size() &&
               (cv.isPunct(j, "&") || cv.isPunct(j, "*") ||
                cv.is(j, TokKind::Ident, "const")))
            ++j;
        if (j < cv.size() && cv.at(j).kind == TokKind::Ident)
            names.insert(cv.at(j).text);
    }
    return names;
}

void
parseDirectiveList(const std::string& text, std::size_t open_paren,
                   int line_no, bool file_wide, Suppressions* out)
{
    std::size_t close = text.find(')', open_paren);
    if (close == std::string::npos)
        return;
    std::string inner =
        text.substr(open_paren + 1, close - open_paren - 1);
    std::stringstream ss(inner);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
        rule = trim(rule);
        if (rule.empty())
            continue;
        if (file_wide) {
            out->fileWide.insert(rule);
        } else {
            // A directive covers its own line and the one below, so it
            // can sit at the end of the offending line or just above.
            out->lines.insert({rule, line_no});
            out->lines.insert({rule, line_no + 1});
        }
    }
}

} // namespace

std::string
Finding::format() const
{
    return file + ":" + std::to_string(line) + ": " + rule + ": " +
           message;
}

std::vector<std::string>
allRules()
{
    std::vector<std::string> out;
    for (const RuleInfo& r : kRules)
        out.push_back(r.name);
    return out;
}

std::string
ruleDescription(const std::string& rule)
{
    for (const RuleInfo& r : kRules) {
        if (rule == r.name)
            return r.description;
    }
    return "";
}

RuleSet
ruleSetFor(const std::string& rel_path)
{
    RuleSet rs; // mechanical hygiene applies everywhere
    if (!startsWith(rel_path, "src/"))
        return rs;

    rs.noRawNewDelete = true;
    // The harness is the CLI-facing reporting layer: banners and figure
    // tables go to stdout by design.
    rs.noPrintf = !startsWith(rel_path, "src/harness/");
    // Artifact writers must go through AtomicFile so an interrupted run
    // never leaves a truncated file; base/ holds AtomicFile itself.
    rs.noRawOfstream = !startsWith(rel_path, "src/base/");
    // Sampling-plan writers anywhere in src/ must write atomically
    // (the rule itself only fires in files mentioning the schema).
    rs.planAtomicWrite = true;
    // Journal writers must append durably. src/ only: tests forge
    // corrupt journals with raw I/O on purpose, and the inspector
    // merely reads them.
    rs.journalAtomicAppend = startsWith(rel_path, "src/");
    // Interval selection must be a pure function of the sample series:
    // no host clock of any kind, steady or otherwise.
    rs.intervalWallclock = startsWith(rel_path, "src/trace/");

    // Simulation code: anything whose behaviour feeds simulated state,
    // results, or serialized output. base/ (host utilities, and the
    // sanctioned PRNG itself) and obs/ (host-side wall-clock profiling)
    // are exempt from the determinism group.
    static const char* kSimDirs[] = {
        "src/softsdv/", "src/dragonhead/", "src/cache/", "src/mem/",
        "src/trace/",   "src/core/",       "src/workloads/",
        "src/prefetch/",
    };
    for (const char* dir : kSimDirs) {
        if (startsWith(rel_path, dir)) {
            rs.determinism = true;
            break;
        }
    }
    return rs;
}

std::string
canonicalGuard(const std::string& rel_path)
{
    std::string path = rel_path;
    if (startsWith(path, "src/"))
        path = path.substr(4);
    std::string guard = "COSIM_";
    for (char c : path) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

Suppressions
parseSuppressions(const TokenStream& ts)
{
    Suppressions sup;
    static const std::string kTag = "cosim-analyze:";
    for (const Token& tok : ts.tokens) {
        if (tok.kind != TokKind::Comment)
            continue;
        std::size_t pos = 0;
        while ((pos = tok.text.find(kTag, pos)) != std::string::npos) {
            // Line of the directive inside a multi-line comment.
            int line = tok.line +
                       static_cast<int>(std::count(
                           tok.text.begin(),
                           tok.text.begin() +
                               static_cast<std::ptrdiff_t>(pos),
                           '\n'));
            std::size_t cursor = pos + kTag.size();
            std::size_t allow_file = tok.text.find("allow-file(", cursor);
            std::size_t allow = tok.text.find("allow(", cursor);
            if (allow_file != std::string::npos) {
                parseDirectiveList(tok.text, allow_file + 10, line, true,
                                   &sup);
            } else if (allow != std::string::npos) {
                parseDirectiveList(tok.text, allow + 5, line, false,
                                   &sup);
            }
            pos = cursor;
        }
    }
    return sup;
}

std::vector<Finding>
lintTokens(const std::string& rel_path, const std::string& content,
           const TokenStream& ts, const RuleSet& rules,
           const Suppressions& sup)
{
    std::vector<Finding> findings;
    const CodeView cv{ts};

    auto report = [&](const std::string& rule, int line,
                      const std::string& message) {
        if (!sup.allows(rule, line))
            findings.push_back(Finding{rel_path, line, rule, message});
    };

    const std::set<std::string> unordered_names =
        rules.determinism ? unorderedContainerNames(cv)
                          : std::set<std::string>{};

    // The sampled-simulation rules fire only in files that are in the
    // business: plan writers name the "cosim-plan/" schema anywhere in
    // the file (string literal or prose), interval selectors name the
    // plan types in code.
    const bool writes_plans =
        rules.planAtomicWrite &&
        content.find("cosim-plan/") != std::string::npos;
    // Same gate for the write-ahead journal: the rule fires only in
    // files that name its schema.
    const bool writes_journal =
        rules.journalAtomicAppend &&
        content.find("cosim-journal/") != std::string::npos;
    bool selects_intervals = false;
    if (rules.intervalWallclock) {
        for (std::size_t i = 0; i < cv.size(); ++i) {
            if (isIdentUse(cv, i, "SamplingPlan") ||
                isIdentUse(cv, i, "PlanInterval")) {
                selects_intervals = true;
                break;
            }
        }
    }

    for (std::size_t i = 0; i < cv.size(); ++i) {
        const Token& t = cv.at(i);
        const int n = t.line;

        if (rules.determinism) {
            for (const CallRule& r : kDeterminismCalls) {
                if (isCallOf(cv, i, r.name))
                    report(r.rule, n, r.message);
            }
            if (isIdentUse(cv, i, "system_clock"))
                report("no-system-clock", n,
                       "std::chrono::system_clock is wall-clock; use "
                       "steady_clock for host timing, simulated time "
                       "for model behaviour");
            if (isIdentUse(cv, i, "random_device"))
                report("no-random-device", n,
                       "std::random_device is host entropy; cosim::Rng "
                       "(base/random.hh) is the only sanctioned "
                       "randomness source");
            if (!unordered_names.empty() && t.isIdent("for") &&
                cv.isPunct(i + 1, "(")) {
                std::size_t close = matchParen(cv, i + 1);
                if (close != std::string::npos) {
                    // Find the range-for ':' at paren depth 1, then
                    // take the last identifier of the range expression
                    // ("m.items()" -> items).
                    std::size_t colon = std::string::npos;
                    int depth = 0;
                    for (std::size_t j = i + 1; j < close; ++j) {
                        if (cv.isPunct(j, "("))
                            ++depth;
                        else if (cv.isPunct(j, ")"))
                            --depth;
                        else if (depth == 1 && cv.isPunct(j, ":")) {
                            colon = j;
                            break;
                        }
                    }
                    if (colon != std::string::npos) {
                        std::string target;
                        for (std::size_t j = colon + 1; j < close; ++j) {
                            if (cv.at(j).kind == TokKind::Ident)
                                target = cv.at(j).text;
                        }
                        if (!target.empty() &&
                            unordered_names.count(target)) {
                            report("unordered-iteration", n,
                                   "iterating '" + target +
                                       "' (std::unordered_*) has "
                                       "host-dependent order; sort or "
                                       "use an ordered container "
                                       "before results/serialization");
                        }
                    }
                }
            }
        }

        if (rules.noRawNewDelete) {
            if (t.isIdent("new"))
                report("no-raw-new", n,
                       "raw new in library code; use std::make_unique "
                       "or a container");
            if (t.isIdent("delete") &&
                !(i > 0 && cv.isPunct(i - 1, "=")))
                report("no-raw-delete", n,
                       "raw delete in library code; use "
                       "std::unique_ptr ownership");
        }

        if (rules.noPrintf) {
            for (const CallRule& r : kPrintfCalls) {
                if (isCallOf(cv, i, r.name)) {
                    report("no-printf", n,
                           std::string(r.name) +
                               "() in library code; use the "
                               "base/logging.hh macros or return "
                               "strings to the caller");
                    break;
                }
            }
        }

        if (writes_plans &&
            (isIdentUse(cv, i, "ofstream") || isCallOf(cv, i, "fopen"))) {
            report("plan-atomic-write", n,
                   "raw file I/O in a sampling-plan writer; plans must "
                   "go through AtomicFile / writeFileAtomic "
                   "(base/atomic_file.hh) so a failed run never leaves "
                   "a torn cosim-plan file for --plan to consume");
        }

        if (writes_journal &&
            (isIdentUse(cv, i, "ofstream") || isCallOf(cv, i, "fopen") ||
             isIdentUse(cv, i, "AppendFile"))) {
            report("journal-atomic-append", n,
                   "raw file I/O in a sweep-journal writer; records "
                   "must go through DurableAppendFile "
                   "(base/atomic_file.hh) -- O_APPEND, one write() "
                   "per record, fdatasync -- so a crash can only "
                   "tear the final line, which --resume discards");
        }

        if (selects_intervals &&
            (isIdentUse(cv, i, "steady_clock") ||
             isIdentUse(cv, i, "system_clock") ||
             isCallOf(cv, i, "time") ||
             isCallOf(cv, i, "clock_gettime"))) {
            report("interval-wallclock", n,
                   "host clock in interval-selection code; plan "
                   "generation must be a pure function of the "
                   "sample series and the seed (time sampled "
                   "passes in core/cosim.cc instead)");
        }

        if (rules.noRawOfstream && isIdentUse(cv, i, "ofstream")) {
            report("no-raw-ofstream", n,
                   "raw std::ofstream in library code; write artifacts "
                   "through AtomicFile / writeFileAtomic "
                   "(base/atomic_file.hh) so failures never leave a "
                   "truncated file");
        }
    }

    if (rules.includeHygiene) {
        for (const Token& tok : ts.tokens) {
            if (tok.kind != TokKind::Directive)
                continue;
            IncludePath inc = parseIncludeDirective(tok.text);
            if (inc.path.empty())
                continue;
            if (inc.angled && isProjectIncludePath(inc.path)) {
                report("include-hygiene", tok.line,
                       "project header '" + inc.path +
                           "' included with <>; use \"quotes\"");
            } else if (startsWith(inc.path, "../")) {
                report("include-hygiene", tok.line,
                       "relative include '" + inc.path +
                           "'; include repo-root-relative paths");
            }
        }
    }

    if (rules.trailingWhitespace) {
        const std::vector<std::string> raw = splitLines(content);
        for (std::size_t i = 0; i < raw.size(); ++i) {
            if (raw[i].empty())
                continue;
            char last = raw[i].back();
            if (last == ' ' || last == '\t')
                report("trailing-whitespace", static_cast<int>(i) + 1,
                       "trailing whitespace");
        }
    }

    if (rules.headerGuard && isHeaderPath(rel_path)) {
        const std::string want = canonicalGuard(rel_path);
        int ifndef_line = -1;
        bool have_define = false;
        std::string have;
        for (const Token& tok : ts.tokens) {
            if (tok.kind == TokKind::Comment)
                continue;
            if (tok.kind != TokKind::Directive)
                break; // first real code before any guard
            const std::string kw = directiveKeyword(tok.text);
            if (kw == "ifndef" && ifndef_line < 0) {
                std::size_t at = tok.text.find("ifndef");
                have = trim(tok.text.substr(at + 6));
                ifndef_line = tok.line;
            } else if (kw == "define" && ifndef_line >= 0) {
                have_define = true;
                break;
            }
        }
        if (ifndef_line < 0 || !have_define) {
            if (!sup.allows("header-guard", 1))
                findings.push_back(Finding{
                    rel_path, 1, "header-guard",
                    "missing include guard; expected #ifndef " + want});
        } else if (have != want) {
            report("header-guard", ifndef_line,
                   "include guard '" + have + "' should be '" + want +
                       "'");
        }
    }

    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                         return a.line < b.line;
                     });
    return findings;
}

std::vector<Finding>
lintContent(const std::string& rel_path, const std::string& content,
            const RuleSet& rules)
{
    const TokenStream ts = lex(content);
    return lintTokens(rel_path, content, ts, rules,
                      parseSuppressions(ts));
}

// ---------------------------------------------------------------------
// Mechanical fixing. Line-oriented by nature (the fixes preserve the
// file byte-for-byte outside the touched spans); comment/string spans
// are identified through the lexer so a guard-looking line inside a
// raw string is never rewritten.
// ---------------------------------------------------------------------

namespace {

/** Line-based include parse used by the fixer. */
struct IncludeLine
{
    std::string path;
    bool angled = false;
};

IncludeLine
parseIncludeLine(const std::string& line)
{
    IncludeLine inc;
    std::string t = trim(line);
    if (!startsWith(t, "#"))
        return inc;
    t = trim(t.substr(1));
    if (!startsWith(t, "include"))
        return inc;
    t = trim(t.substr(7));
    if (t.size() < 2)
        return inc;
    char open = t[0];
    char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
    if (close == '\0')
        return inc;
    std::size_t end = t.find(close, 1);
    if (end == std::string::npos)
        return inc;
    inc.path = t.substr(1, end - 1);
    inc.angled = open == '<';
    return inc;
}

} // namespace

std::string
fixContent(const std::string& rel_path, const std::string& content,
           const RuleSet& rules)
{
    std::vector<std::string> raw = splitLines(content);
    const TokenStream ts = lex(content);
    const Suppressions sup = parseSuppressions(ts);
    const bool ends_with_newline =
        !content.empty() && content.back() == '\n';

    // 1-based lines that hold a Directive token (so the include and
    // guard fixes never touch directive-looking text inside comments
    // or raw strings).
    std::set<int> directive_lines;
    for (const Token& tok : ts.tokens) {
        if (tok.kind == TokKind::Directive)
            directive_lines.insert(tok.line);
    }

    if (rules.trailingWhitespace) {
        for (std::size_t i = 0; i < raw.size(); ++i) {
            int n = static_cast<int>(i) + 1;
            if (sup.allows("trailing-whitespace", n))
                continue;
            std::size_t e = raw[i].find_last_not_of(" \t");
            if (e == std::string::npos)
                raw[i].clear();
            else if (e + 1 < raw[i].size())
                raw[i].resize(e + 1);
        }
    }

    if (rules.includeHygiene) {
        for (std::size_t i = 0; i < raw.size(); ++i) {
            int n = static_cast<int>(i) + 1;
            if (sup.allows("include-hygiene", n) ||
                directive_lines.count(n) == 0)
                continue;
            IncludeLine inc = parseIncludeLine(raw[i]);
            if (inc.path.empty() || !inc.angled ||
                !isProjectIncludePath(inc.path))
                continue;
            std::size_t open = raw[i].find('<');
            std::size_t close = raw[i].find('>', open);
            if (open == std::string::npos || close == std::string::npos)
                continue;
            raw[i] = raw[i].substr(0, open) + "\"" + inc.path + "\"" +
                     raw[i].substr(close + 1);
        }
    }

    if (rules.headerGuard && isHeaderPath(rel_path) &&
        !sup.allows("header-guard", 1)) {
        const std::string want = canonicalGuard(rel_path);
        int ifndef_line = -1, define_line = -1, endif_line = -1;
        std::string have;
        for (const Token& tok : ts.tokens) {
            if (tok.kind == TokKind::Comment)
                continue;
            if (tok.kind != TokKind::Directive)
                break;
            const std::string kw = directiveKeyword(tok.text);
            if (kw == "ifndef" && ifndef_line < 0) {
                std::size_t at = tok.text.find("ifndef");
                have = trim(tok.text.substr(at + 6));
                ifndef_line = tok.line;
            } else if (kw == "define" && ifndef_line >= 0) {
                define_line = tok.line;
                break;
            }
        }
        // The matching #endif is the last directive in the file.
        for (const Token& tok : ts.tokens) {
            if (tok.kind == TokKind::Directive &&
                directiveKeyword(tok.text) == "endif")
                endif_line = tok.line;
        }
        if (ifndef_line > 0 && define_line > 0 && have != want &&
            !sup.allows("header-guard", ifndef_line)) {
            raw[static_cast<std::size_t>(ifndef_line) - 1] =
                "#ifndef " + want;
            raw[static_cast<std::size_t>(define_line) - 1] =
                "#define " + want;
            if (endif_line > 0)
                raw[static_cast<std::size_t>(endif_line) - 1] =
                    "#endif // " + want;
        }
    }

    std::string out;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        out += raw[i];
        if (i + 1 < raw.size() || ends_with_newline)
            out += '\n';
    }
    return out;
}

} // namespace cosim_analyze
