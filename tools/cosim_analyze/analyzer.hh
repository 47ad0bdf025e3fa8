/**
 * @file
 * The cosim_analyze driver: per-file fact extraction (stage one), the
 * project passes (stage two) and the justification-carrying
 * allowlist.
 *
 * Every run lexes and judges every file afresh, so no state carries
 * from one run into the next: a changed rule reaches the whole tree
 * the first time it runs.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_ANALYZER_HH
#define COSIM_TOOLS_COSIM_ANALYZE_ANALYZER_HH

#include <string>
#include <vector>

#include "tools/cosim_analyze/facts.hh"

namespace cosim_analyze {

/** Stage one for one file: lex once, run the per-file rules, extract
 * the facts the project passes need. Pure. */
FileFacts extractFileFacts(const std::string& rel_path,
                           const std::string& content);

/** Parse tools/cosim_analyze/analysis.allow. Lines look like
 *   layering core -> trace: replay drivers feed the core loop
 *   lock-order A::m_ -> B::m_: B is only reached from A's shard
 * Malformed or justification-less lines produce allowlist-hygiene
 * findings (appended to @p findings). */
std::vector<AllowEntry> parseAllowFile(const std::string& rel_path,
                                       const std::string& content,
                                       std::vector<Finding>* findings);

struct AnalyzeOptions
{
    std::string root = ".";
    bool fix = false; ///< apply mechanical fixes first
};

struct AnalyzeResult
{
    std::vector<Finding> findings; ///< sorted by file, line, rule
    int filesScanned = 0;
    bool ioError = false;
    std::vector<std::string> errors;
};

/** Run the whole analysis over the tree at opts.root. A root that is
 * not a directory, or holds no source files, is an error (ioError). */
AnalyzeResult analyzeTree(const AnalyzeOptions& opts);

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_ANALYZER_HH
