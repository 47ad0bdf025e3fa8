#include "tools/cosim_analyze/analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tools/cosim_analyze/include_graph.hh"
#include "tools/cosim_analyze/lock_order.hh"
#include "tools/cosim_analyze/rules.hh"

namespace fs = std::filesystem;

namespace cosim_analyze {

namespace {

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
readFile(const fs::path& p, std::string* out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
writeFile(const fs::path& p, const std::string& content)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

} // namespace

FileFacts
extractFileFacts(const std::string& rel_path,
                 const std::string& content)
{
    FileFacts ff;
    ff.path = rel_path;
    const TokenStream ts = lex(content);
    ff.suppressions = parseSuppressions(ts);
    ff.findings = lintTokens(rel_path, content, ts,
                             ruleSetFor(rel_path), ff.suppressions);
    for (const Token& tok : ts.tokens) {
        if (tok.kind != TokKind::Directive)
            continue;
        IncludePath inc = parseIncludeDirective(tok.text);
        if (!inc.path.empty())
            ff.includes.push_back(
                IncludeFact{tok.line, inc.path, inc.angled});
    }
    extractLockFacts(ts, &ff);
    return ff;
}

std::vector<AllowEntry>
parseAllowFile(const std::string& rel_path, const std::string& content,
               std::vector<Finding>* findings)
{
    std::vector<AllowEntry> out;
    const std::vector<std::string> lines = splitLines(content);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const int n = static_cast<int>(i) + 1;
        const std::string l = trim(lines[i]);
        if (l.empty() || l[0] == '#')
            continue;
        auto bad = [&](const std::string& why) {
            findings->push_back(Finding{
                rel_path, n, "allowlist-hygiene",
                why + "; expected '<pass> <from> -> <to>: "
                      "<justification>' with pass in {layering, "
                      "lock-order}"});
        };
        std::size_t sp = l.find(' ');
        std::size_t arrow = l.find(" -> ");
        // The separator is the first ':' after the arrow that is not
        // part of a "::" scope operator -- lock-order endpoints are
        // spelled Class::member.
        std::size_t colon = std::string::npos;
        if (arrow != std::string::npos) {
            for (std::size_t p = arrow + 4;
                 (p = l.find(':', p)) != std::string::npos;) {
                if (p + 1 < l.size() && l[p + 1] == ':') {
                    p += 2;
                    continue;
                }
                colon = p;
                break;
            }
        }
        if (sp == std::string::npos || arrow == std::string::npos ||
            colon == std::string::npos || sp > arrow) {
            bad("malformed allowlist entry");
            continue;
        }
        AllowEntry e;
        e.line = n;
        e.pass = l.substr(0, sp);
        e.from = trim(l.substr(sp + 1, arrow - sp - 1));
        e.to = trim(l.substr(arrow + 4, colon - arrow - 4));
        e.justification = trim(l.substr(colon + 1));
        if (e.pass != "layering" && e.pass != "lock-order") {
            bad("unknown pass '" + e.pass + "'");
            continue;
        }
        if (e.from.empty() || e.to.empty()) {
            bad("empty endpoint");
            continue;
        }
        if (e.justification.empty()) {
            bad("allowlist entry without a justification");
            continue;
        }
        out.push_back(std::move(e));
    }
    return out;
}

namespace {

/** Deterministic list of analyzable sources under @p root. */
std::vector<std::string>
collectSources(const fs::path& root)
{
    static const char* kDirs[] = {"src", "tools", "tests", "bench",
                                  "examples"};
    static const char* kExts[] = {".cc", ".hh", ".cpp", ".hpp"};
    std::vector<std::string> out;
    for (const char* dir : kDirs) {
        const fs::path base = root / dir;
        std::error_code ec;
        if (!fs::is_directory(base, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(base, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_regular_file(ec))
                continue;
            const std::string rel =
                fs::relative(it->path(), root, ec).generic_string();
            // Seeded-violation fixture trees are analyzed with
            // --root pointed at the fixture, never as part of the
            // repo run.
            if (rel.find("analyze_fixtures/") != std::string::npos)
                continue;
            const std::string ext = it->path().extension().string();
            for (const char* e : kExts) {
                if (ext == e) {
                    out.push_back(rel);
                    break;
                }
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

AnalyzeResult
analyzeTree(const AnalyzeOptions& opts)
{
    AnalyzeResult res;
    const fs::path root = opts.root;

    // ---- Stage one: per-file facts. ----
    std::vector<FileFacts> files;
    for (const std::string& rel : collectSources(root)) {
        std::string content;
        if (!readFile(root / rel, &content)) {
            res.errors.push_back("cannot read " + rel);
            res.ioError = true;
            continue;
        }
        if (opts.fix) {
            const std::string fixed =
                fixContent(rel, content, ruleSetFor(rel));
            if (fixed != content) {
                if (!writeFile(root / rel, fixed)) {
                    res.errors.push_back("cannot write " + rel);
                    res.ioError = true;
                } else {
                    content = fixed;
                }
            }
        }
        ++res.filesScanned;
        files.push_back(extractFileFacts(rel, content));
    }

    // ---- Allowlist. ----
    std::vector<Finding>& findings = res.findings;
    const std::string allow_rel = "tools/cosim_analyze/analysis.allow";
    std::vector<AllowEntry> allows;
    {
        std::string content;
        if (readFile(root / allow_rel, &content))
            allows = parseAllowFile(allow_rel, content, &findings);
    }
    std::vector<bool> used_allows(allows.size(), false);

    // ---- Per-file findings. ----
    for (const FileFacts& ff : files)
        findings.insert(findings.end(), ff.findings.begin(),
                        ff.findings.end());

    // ---- Project passes. ----
    {
        std::vector<Finding> f =
            checkIncludeGraph(files, allows, &used_allows);
        findings.insert(findings.end(), f.begin(), f.end());
    }
    {
        std::vector<Finding> f =
            checkLockOrder(files, allows, &used_allows);
        findings.insert(findings.end(), f.begin(), f.end());
    }
    for (std::size_t i = 0; i < allows.size(); ++i) {
        if (!used_allows[i])
            findings.push_back(Finding{
                allow_rel, allows[i].line, "allowlist-hygiene",
                "allowlist entry '" + allows[i].pass + " " +
                    allows[i].from + " -> " + allows[i].to +
                    "' no longer matches any finding; remove it"});
    }

    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return res;
}

} // namespace cosim_analyze
