/**
 * @file
 * Identifier registries (project pass).
 *
 * Three classes of stringly-typed identifiers flow through the
 * simulator's artifacts and tooling, and each must be declared in a
 * committed manifest under tools/registries/ so renames are reviewed
 * and tools (sweep dashboards, fault campaigns) can rely on the full
 * universe of names:
 *
 *   - fault sites     COSIM_FAULT_POINT("x") / faultPending("x"),
 *                     fault_sites.txt, charset [a-z][a-z0-9_.]*,
 *                     declared at exactly one code site;
 *   - stats keys      stats::Group .add("x"), stats_keys.txt,
 *                     charset [a-z][a-z0-9_]* (names recur across
 *                     groups by design: cache.l1 and cache.l2 both
 *                     have "misses");
 *   - schema strings  "cosim-<kind>/<version>" artifact headers,
 *                     schemas.txt (extracted as substrings: they are
 *                     embedded in longer literals).
 *
 * Declaration sites are counted in src/ (schemas also in bench/ and
 * examples/); tests deliberately register junk names and are out of
 * scope. A manifest entry with no remaining site is reported as
 * stale, so the manifests never rot.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_REGISTRY_HH
#define COSIM_TOOLS_COSIM_ANALYZE_REGISTRY_HH

#include <map>
#include <string>
#include <vector>

#include "tools/cosim_analyze/facts.hh"
#include "tools/cosim_analyze/lexer.hh"

namespace cosim_analyze {

/** One parsed tools/registries/<name>.txt manifest. */
struct RegistryFile
{
    std::string path; ///< repo-relative, for findings
    std::map<std::string, int> entries; ///< name -> 1-based line
};

/** The three manifests. */
struct Registries
{
    RegistryFile faultSites, statsKeys, schemas;
};

/** Parse manifest @p content ('#' comments and blanks skipped). */
RegistryFile parseRegistry(const std::string& rel_path,
                           const std::string& content);

/** Render a manifest body for --write-registries: sorted names under
 * a generated header comment. */
std::string formatRegistry(const std::string& title,
                           const std::vector<std::string>& names);

/** Harvest identifier declarations from @p ts into @p out (appends
 * to out->idents); @p rel_path decides which kinds are in scope. */
void extractIdentDecls(const std::string& rel_path,
                       const TokenStream& ts, FileFacts* out);

/** Check every declaration against the manifests and the manifests
 * against the declarations. */
std::vector<Finding> checkRegistries(const std::vector<FileFacts>& files,
                                     const Registries& regs);

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_REGISTRY_HH
