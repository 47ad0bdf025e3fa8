/**
 * @file
 * Per-file rules of cosim_analyze, evaluated over the token stream
 * from lexer.hh, plus the rule table shared with the project passes.
 *
 * The per-file rules (see DESIGN.md "Static analysis" for the full
 * table and rationale): determinism rules in simulation directories,
 * library hygiene and atomic plan/journal writers in src/, sampled-plan
 * purity in trace/, and the mechanical rules everywhere. Because the
 * rules walk tokens, text inside comments and string literals can
 * never trigger them -- a log message mentioning `rand(` is just a
 * String token.
 *
 * The project passes (include_graph.hh, lock_order.hh) contribute the
 * cross-TU rules; allRules()/ruleDescription() cover both kinds so
 * `--list-rules` is the complete self-description.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_RULES_HH
#define COSIM_TOOLS_COSIM_ANALYZE_RULES_HH

#include <string>
#include <vector>

#include "tools/cosim_analyze/facts.hh"
#include "tools/cosim_analyze/lexer.hh"

namespace cosim_analyze {

/** Every rule name (per-file and project passes), in stable order. */
std::vector<std::string> allRules();

/** One-line description of @p rule; empty for unknown rules. */
std::string ruleDescription(const std::string& rule);

/**
 * Rule set for a repo-relative path ("src/cache/cache.cc",
 * "tests/test_base.cc"). Simulation directories get the determinism
 * group; all of src/ except the CLI-facing harness gets the library
 * rules; tests/bench/examples/tools only the mechanical hygiene.
 */
RuleSet ruleSetFor(const std::string& rel_path);

/** Canonical include guard for a header path: "src/obs/json.hh" ->
 * "COSIM_OBS_JSON_HH" (the leading "src/" is dropped, other top-level
 * directories keep their name). */
std::string canonicalGuard(const std::string& rel_path);

/** Suppressions from the stream's comment tokens. */
Suppressions parseSuppressions(const TokenStream& ts);

/** Per-file findings for @p ts lexed from (@p rel_path, @p content)
 * under @p rules, with @p sup already applied. @p content is needed
 * for the trailing-whitespace rule only. */
std::vector<Finding> lintTokens(const std::string& rel_path,
                                const std::string& content,
                                const TokenStream& ts,
                                const RuleSet& rules,
                                const Suppressions& sup);

/** Convenience: lex + suppressions + lintTokens. */
std::vector<Finding> lintContent(const std::string& rel_path,
                                 const std::string& content,
                                 const RuleSet& rules);

/**
 * Apply the mechanical fixes (header-guard, include-hygiene,
 * trailing-whitespace) and return the rewritten content; non-fixable
 * rules are untouched. fix(fix(x)) == fix(x).
 */
std::string fixContent(const std::string& rel_path,
                       const std::string& content, const RuleSet& rules);

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_RULES_HH
