#include "tools/cosim_analyze/registry.hh"

#include <algorithm>
#include <map>

namespace cosim_analyze {

namespace {

bool
startsWith(const std::string& s, const std::string& prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
validName(const std::string& name, bool allow_dot)
{
    if (name.empty() || name[0] < 'a' || name[0] > 'z')
        return false;
    for (char c : name) {
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_' || (allow_dot && c == '.')))
            return false;
    }
    return true;
}

/** Every "cosim-<kind>/<version>" substring of @p text. */
std::vector<std::string>
schemaStrings(const std::string& text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = text.find("cosim-", pos)) != std::string::npos) {
        std::size_t i = pos + 6;
        while (i < text.size() &&
               ((text[i] >= 'a' && text[i] <= 'z') || text[i] == '-'))
            ++i;
        if (i < text.size() && text[i] == '/' && i > pos + 6) {
            std::size_t v = i + 1;
            while (v < text.size() && text[v] >= '0' && text[v] <= '9')
                ++v;
            if (v > i + 1) {
                out.push_back(text.substr(pos, v - pos));
                pos = v;
                continue;
            }
        }
        pos = pos + 6;
    }
    return out;
}

struct DeclSite
{
    const FileFacts* file;
    const IdentDecl* decl;
};

void
checkClass(const std::vector<DeclSite>& sites, const RegistryFile& reg,
           const char* unregistered_rule, const char* charset_rule,
           const char* duplicate_rule, bool allow_dot,
           std::vector<Finding>* findings,
           std::map<std::string, bool>* seen_names)
{
    std::map<std::string, const DeclSite*> first;
    for (const DeclSite& s : sites) {
        const std::string& name = s.decl->name;
        (*seen_names)[name] = true;
        auto report = [&](const char* rule, const std::string& msg) {
            if (!s.file->suppressions.allows(rule, s.decl->line))
                findings->push_back(Finding{s.file->path,
                                            s.decl->line, rule, msg});
        };
        if (charset_rule && !validName(name, allow_dot)) {
            report(charset_rule,
                   "\"" + name + "\" violates [a-z][a-z0-9_" +
                       (allow_dot ? "." : "") + "]*");
            continue;
        }
        if (reg.entries.find(name) == reg.entries.end())
            report(unregistered_rule,
                   "\"" + name + "\" is not declared in " + reg.path +
                       "; add it there (or run cosim_analyze "
                       "--write-registries)");
        if (duplicate_rule) {
            auto ins = first.emplace(name, &s);
            if (!ins.second)
                report(duplicate_rule,
                       "\"" + name + "\" already declared at " +
                           ins.first->second->file->path + ":" +
                           std::to_string(
                               ins.first->second->decl->line) +
                           "; identifier declarations must be unique");
        }
    }
}

} // namespace

RegistryFile
parseRegistry(const std::string& rel_path, const std::string& content)
{
    RegistryFile reg;
    reg.path = rel_path;
    int line = 0;
    std::size_t start = 0;
    while (start <= content.size()) {
        ++line;
        std::size_t nl = content.find('\n', start);
        std::string l =
            nl == std::string::npos
                ? content.substr(start)
                : content.substr(start, nl - start);
        std::size_t b = l.find_first_not_of(" \t\r");
        if (b != std::string::npos && l[b] != '#') {
            std::size_t e = l.find_last_not_of(" \t\r");
            reg.entries.emplace(l.substr(b, e - b + 1), line);
        }
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
    return reg;
}

std::string
formatRegistry(const std::string& title,
               const std::vector<std::string>& names)
{
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()),
                 sorted.end());
    std::string out = "# " + title + "\n";
    out += "# Maintained by cosim_analyze --write-registries; every\n";
    out += "# entry must have a live code site (stale entries are\n";
    out += "# reported as stale-registry-entry).\n";
    for (const std::string& n : sorted)
        out += n + "\n";
    return out;
}

void
extractIdentDecls(const std::string& rel_path, const TokenStream& ts,
                  FileFacts* out)
{
    const bool in_src = startsWith(rel_path, "src/");
    const bool schema_scope = in_src ||
                              startsWith(rel_path, "bench/") ||
                              startsWith(rel_path, "examples/");
    if (!schema_scope)
        return;

    for (std::size_t i = 0; i < ts.codeSize(); ++i) {
        const Token& t = ts.codeTok(i);

        if (t.kind == TokKind::String) {
            for (const std::string& schema : schemaStrings(t.text))
                out->idents.push_back(
                    IdentDecl{IdentDecl::Schema, t.line, schema});
            continue;
        }
        if (!in_src || t.kind != TokKind::Ident)
            continue;

        auto stringArg = [&](std::size_t call) -> const Token* {
            if (call + 1 < ts.codeSize() &&
                ts.codeTok(call + 1).isPunct("(") &&
                call + 2 < ts.codeSize() &&
                ts.codeTok(call + 2).kind == TokKind::String)
                return &ts.codeTok(call + 2);
            return nullptr;
        };

        if (t.text == "COSIM_FAULT_POINT" || t.text == "faultPending") {
            // The definitions in base/fault.hh take `site` as a
            // parameter; only literal-argument call sites declare.
            if (const Token* arg = stringArg(i))
                out->idents.push_back(IdentDecl{IdentDecl::FaultSite,
                                                arg->line, arg->text});
        } else if (t.text == "add" && i > 0 &&
                   (ts.codeTok(i - 1).isPunct(".") ||
                    ts.codeTok(i - 1).isPunct("->"))) {
            if (const Token* arg = stringArg(i))
                out->idents.push_back(IdentDecl{IdentDecl::StatKey,
                                                arg->line, arg->text});
        }
    }
}

std::vector<Finding>
checkRegistries(const std::vector<FileFacts>& files,
                const Registries& regs)
{
    std::vector<Finding> findings;

    std::vector<DeclSite> faults, stats, schemas;
    for (const FileFacts& ff : files) {
        for (const IdentDecl& d : ff.idents) {
            switch (d.kind) {
              case IdentDecl::FaultSite:
                faults.push_back({&ff, &d});
                break;
              case IdentDecl::StatKey:
                stats.push_back({&ff, &d});
                break;
              case IdentDecl::Schema:
                schemas.push_back({&ff, &d});
                break;
            }
        }
    }

    std::map<std::string, bool> seen_faults, seen_stats, seen_schemas;
    checkClass(faults, regs.faultSites, "unregistered-fault-site",
               "fault-site-name", "duplicate-fault-site",
               /*allow_dot=*/true, &findings, &seen_faults);
    checkClass(stats, regs.statsKeys, "unregistered-stat-key",
               "stat-key-name", nullptr, /*allow_dot=*/false,
               &findings, &seen_stats);
    checkClass(schemas, regs.schemas, "unregistered-schema", nullptr,
               nullptr, /*allow_dot=*/true, &findings, &seen_schemas);

    auto stale = [&](const RegistryFile& reg,
                     const std::map<std::string, bool>& seen) {
        for (const auto& [name, line] : reg.entries) {
            if (seen.find(name) == seen.end())
                findings.push_back(Finding{
                    reg.path, line, "stale-registry-entry",
                    "\"" + name +
                        "\" has no remaining code site; remove it "
                        "(or run cosim_analyze --write-registries)"});
        }
    };
    stale(regs.faultSites, seen_faults);
    stale(regs.statsKeys, seen_stats);
    stale(regs.schemas, seen_schemas);

    return findings;
}

} // namespace cosim_analyze
