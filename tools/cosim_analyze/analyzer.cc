#include "tools/cosim_analyze/analyzer.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "tools/cosim_analyze/include_graph.hh"
#include "tools/cosim_analyze/lock_order.hh"
#include "tools/cosim_analyze/registry.hh"
#include "tools/cosim_analyze/rules.hh"

namespace fs = std::filesystem;

namespace cosim_analyze {

namespace {

// Bump when the FileFacts serialization or any per-file rule changes
// meaning: stale cache entries then miss instead of lying.
const char* kCacheHeader = "cosim-analyze-cache/5";
const char* kEntrySep = "%%";

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

std::vector<std::string>
splitTabs(const std::string& line)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
            out.push_back(line.substr(start));
            return out;
        }
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
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
    std::error_code ec;
    fs::create_directories(p.parent_path(), ec);
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

std::string
lockRefFields(const LockRef& r)
{
    return r.cls + "\t" + r.member + "\t" + r.raw;
}

/** LockRef from fields f[at], f[at+1], f[at+2]; caller checks size. */
LockRef
lockRefFrom(const std::vector<std::string>& f, std::size_t at)
{
    LockRef r;
    r.cls = f[at];
    r.member = f[at + 1];
    r.raw = f[at + 2];
    return r;
}

} // namespace

std::string
contentHash(const std::string& content)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (char c : content) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    static const char* hex = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hex[h & 0xf];
        h >>= 4;
    }
    return out;
}

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
    extractIdentDecls(rel_path, ts, &ff);
    extractLockFacts(ts, &ff);
    return ff;
}

std::string
serializeFileFacts(const FileFacts& ff,
                   const std::string& content_hash)
{
    std::string out;
    out += "E\t" + content_hash + "\t" + ff.path + "\n";
    for (const Finding& f : ff.findings)
        out += "f\t" + std::to_string(f.line) + "\t" + f.rule + "\t" +
               f.message + "\n";
    for (const std::string& r : ff.suppressions.fileWide)
        out += "sw\t" + r + "\n";
    for (const auto& [rule, line] : ff.suppressions.lines)
        out += "sl\t" + rule + "\t" + std::to_string(line) + "\n";
    for (const IncludeFact& i : ff.includes)
        out += "i\t" + std::to_string(i.line) + "\t" +
               (i.angled ? std::string("1") : std::string("0")) +
               "\t" + i.path + "\n";
    for (const IdentDecl& d : ff.idents)
        out += "d\t" + std::to_string(static_cast<int>(d.kind)) +
               "\t" + std::to_string(d.line) + "\t" + d.name + "\n";
    for (const MutexDecl& m : ff.mutexes)
        out += "m\t" + std::to_string(m.line) + "\t" + m.cls + "\t" +
               m.member + "\n";
    for (const FuncLockFacts& fn : ff.funcs) {
        out += "F\t" + std::to_string(fn.line) + "\t" + fn.qname +
               "\n";
        for (const LockRef& r : fn.requiresLocks)
            out += "R\t" + lockRefFields(r) + "\n";
        for (const LockRef& r : fn.acquireLocks)
            out += "A\t" + lockRefFields(r) + "\n";
        for (const auto& [r, line] : fn.acquires)
            out += "Q\t" + std::to_string(line) + "\t" +
                   lockRefFields(r) + "\n";
        for (const LockEdge& e : fn.edges)
            out += "G\t" + std::to_string(e.line) + "\t" +
                   lockRefFields(e.from) + "\t" +
                   lockRefFields(e.to) + "\n";
        for (const LockCall& c : fn.calls) {
            out += "C\t" + std::to_string(c.line) + "\t" + c.callee;
            for (const LockRef& h : c.held)
                out += "\t" + lockRefFields(h);
            out += "\n";
        }
    }
    return out;
}

bool
deserializeFileFacts(const std::string& blob,
                     const std::string& expect_hash, FileFacts* out)
{
    FileFacts ff;
    FuncLockFacts* fn = nullptr;
    bool sawHeader = false;
    for (const std::string& line : splitLines(blob)) {
        if (line.empty())
            continue;
        const std::vector<std::string> f = splitTabs(line);
        const std::string& k = f[0];
        if (k == "E") {
            if (f.size() != 3 || f[1] != expect_hash)
                return false;
            ff.path = f[2];
            sawHeader = true;
        } else if (k == "f" && f.size() >= 4) {
            // Message is everything after the third tab (it may
            // legitimately contain no tabs, but be safe).
            std::string msg = f[3];
            for (std::size_t j = 4; j < f.size(); ++j)
                msg += "\t" + f[j];
            ff.findings.push_back(
                Finding{ff.path, std::stoi(f[1]), f[2], msg});
        } else if (k == "sw" && f.size() == 2) {
            ff.suppressions.fileWide.insert(f[1]);
        } else if (k == "sl" && f.size() == 3) {
            ff.suppressions.lines.insert({f[1], std::stoi(f[2])});
        } else if (k == "i" && f.size() == 4) {
            ff.includes.push_back(
                IncludeFact{std::stoi(f[1]), f[3], f[2] == "1"});
        } else if (k == "d" && f.size() == 4) {
            ff.idents.push_back(
                IdentDecl{static_cast<IdentDecl::Kind>(std::stoi(f[1])),
                          std::stoi(f[2]), f[3]});
        } else if (k == "m" && f.size() == 4) {
            ff.mutexes.push_back(
                MutexDecl{f[2], f[3], std::stoi(f[1])});
        } else if (k == "F" && f.size() == 3) {
            ff.funcs.push_back(FuncLockFacts{});
            fn = &ff.funcs.back();
            fn->line = std::stoi(f[1]);
            fn->qname = f[2];
        } else if (k == "R" && f.size() == 4 && fn) {
            fn->requiresLocks.push_back(lockRefFrom(f, 1));
        } else if (k == "A" && f.size() == 4 && fn) {
            fn->acquireLocks.push_back(lockRefFrom(f, 1));
        } else if (k == "Q" && f.size() == 5 && fn) {
            fn->acquires.push_back(
                {lockRefFrom(f, 2), std::stoi(f[1])});
        } else if (k == "G" && f.size() == 8 && fn) {
            fn->edges.push_back(LockEdge{lockRefFrom(f, 2),
                                         lockRefFrom(f, 5),
                                         std::stoi(f[1])});
        } else if (k == "C" && f.size() >= 3 && fn) {
            LockCall c;
            c.line = std::stoi(f[1]);
            c.callee = f[2];
            for (std::size_t j = 3; j + 3 <= f.size(); j += 3)
                c.held.push_back(lockRefFrom(f, j));
            fn->calls.push_back(std::move(c));
        } else {
            return false; // unknown or malformed row
        }
    }
    if (!sawHeader)
        return false;
    *out = std::move(ff);
    return true;
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

/** The incremental cache: entry blobs keyed by "hash path". */
std::map<std::string, std::string>
loadCache(const fs::path& path)
{
    std::map<std::string, std::string> cache;
    std::string content;
    if (!readFile(path, &content))
        return cache;
    const std::vector<std::string> lines = splitLines(content);
    if (lines.empty() || lines[0] != kCacheHeader)
        return cache;
    std::string blob, key;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i] == kEntrySep) {
            if (!key.empty())
                cache[key] = blob;
            blob.clear();
            key.clear();
            continue;
        }
        if (blob.empty() && lines[i].size() > 2 &&
            lines[i][0] == 'E') {
            const std::vector<std::string> f = splitTabs(lines[i]);
            if (f.size() == 3)
                key = f[1] + " " + f[2];
        }
        blob += lines[i] + "\n";
    }
    if (!key.empty())
        cache[key] = blob;
    return cache;
}

} // namespace

AnalyzeResult
analyzeTree(const AnalyzeOptions& opts)
{
    AnalyzeResult res;
    const fs::path root = opts.root;
    auto resolve = [&](const std::string& p) {
        return fs::path(p).is_absolute() ? fs::path(p) : root / p;
    };

    std::map<std::string, std::string> cache;
    if (!opts.cachePath.empty())
        cache = loadCache(resolve(opts.cachePath));
    std::map<std::string, std::string> new_cache;

    // ---- Stage one: per-file facts (cached). ----
    std::vector<FileFacts> files;
    std::map<std::string, std::string> contents;
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
        const std::string hash = contentHash(content);
        const std::string key = hash + " " + rel;
        FileFacts ff;
        auto hit = cache.find(key);
        if (hit != cache.end() &&
            deserializeFileFacts(hit->second, hash, &ff) &&
            ff.path == rel) {
            ++res.cacheHits;
        } else {
            ff = extractFileFacts(rel, content);
        }
        new_cache[key] = serializeFileFacts(ff, hash);
        contents[rel] = std::move(content);
        files.push_back(std::move(ff));
    }

    // ---- Allowlist. ----
    std::vector<Finding> findings;
    const std::string allow_rel = "tools/cosim_analyze/analysis.allow";
    std::vector<AllowEntry> allows;
    {
        std::string content;
        if (readFile(root / allow_rel, &content)) {
            allows = parseAllowFile(allow_rel, content, &findings);
            contents[allow_rel] = std::move(content);
        }
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
    {
        Registries regs;
        struct
        {
            RegistryFile* reg;
            const char* rel;
            const char* title;
            IdentDecl::Kind kind;
        } tables[] = {
            {&regs.faultSites, "tools/registries/fault_sites.txt",
             "Fault-injection sites (COSIM_FAULT_POINT/faultPending)",
             IdentDecl::FaultSite},
            {&regs.statsKeys, "tools/registries/stats_keys.txt",
             "stats::Group keys", IdentDecl::StatKey},
            {&regs.schemas, "tools/registries/schemas.txt",
             "Artifact schema strings", IdentDecl::Schema},
        };
        if (opts.writeRegistries) {
            for (auto& t : tables) {
                std::vector<std::string> names;
                for (const FileFacts& ff : files) {
                    for (const IdentDecl& d : ff.idents) {
                        if (d.kind == t.kind)
                            names.push_back(d.name);
                    }
                }
                const std::string body =
                    formatRegistry(t.title, names);
                if (!writeFile(root / t.rel, body)) {
                    res.errors.push_back(std::string("cannot write ") +
                                         t.rel);
                    res.ioError = true;
                }
            }
        }
        for (auto& t : tables) {
            std::string content;
            if (readFile(root / t.rel, &content)) {
                *t.reg = parseRegistry(t.rel, content);
                contents[t.rel] = std::move(content);
            } else {
                t.reg->path = t.rel;
            }
        }
        std::vector<Finding> f = checkRegistries(files, regs);
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

    // ---- Fingerprints and baseline. ----
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
    std::map<std::string, int> occurrence;
    std::vector<FingerprintedFinding> all;
    for (const Finding& f : findings) {
        std::string line_text;
        auto it = contents.find(f.file);
        if (it != contents.end()) {
            const std::vector<std::string> lines =
                splitLines(it->second);
            if (f.line >= 1 &&
                static_cast<std::size_t>(f.line) <= lines.size())
                line_text =
                    lines[static_cast<std::size_t>(f.line) - 1];
        }
        const std::string bucket =
            f.file + "|" + f.rule + "|" + trim(line_text);
        const int occ = occurrence[bucket]++;
        all.push_back(FingerprintedFinding{
            f, fingerprintOf(f, line_text, occ)});
    }

    std::set<std::string> baseline;
    if (!opts.baselinePath.empty()) {
        std::string content;
        if (readFile(resolve(opts.baselinePath), &content))
            baseline = parseBaseline(content);
    }
    for (FingerprintedFinding& ff : all) {
        if (baseline.count(ff.fingerprint))
            res.baselined.push_back(std::move(ff));
        else
            res.findings.push_back(std::move(ff));
    }

    if (opts.writeBaseline && !opts.baselinePath.empty()) {
        std::vector<FingerprintedFinding> everything = res.findings;
        everything.insert(everything.end(), res.baselined.begin(),
                          res.baselined.end());
        if (!writeFile(resolve(opts.baselinePath),
                       formatBaseline(everything))) {
            res.errors.push_back("cannot write baseline " +
                                 opts.baselinePath);
            res.ioError = true;
        }
    }

    if (!opts.sarifPath.empty()) {
        if (!writeFile(resolve(opts.sarifPath),
                       toSarif(res.findings))) {
            res.errors.push_back("cannot write SARIF " +
                                 opts.sarifPath);
            res.ioError = true;
        }
    }

    if (!opts.cachePath.empty()) {
        std::string blob = std::string(kCacheHeader) + "\n";
        for (const auto& [key, entry] : new_cache) {
            blob += entry;
            blob += kEntrySep;
            blob += "\n";
        }
        if (!writeFile(resolve(opts.cachePath), blob)) {
            res.errors.push_back("cannot write cache " +
                                 opts.cachePath);
            res.ioError = true;
        }
    }

    return res;
}

} // namespace cosim_analyze
