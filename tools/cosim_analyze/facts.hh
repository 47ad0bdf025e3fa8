/**
 * @file
 * Shared data model of cosim_analyze: findings, per-directory rule
 * sets, suppressions, and the per-file fact records the cross-TU
 * passes consume.
 *
 * Analysis is split into two stages. Stage one is per-file and pure:
 * `extractFileFacts(path, content)` lexes the file once, runs every
 * per-file rule, and extracts the facts project passes need (include
 * edges, mutex members, per-function lock behaviour). Stage two runs
 * over the whole collection of `FileFacts`: the include-layer gate
 * and the lock-order analyzer.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_FACTS_HH
#define COSIM_TOOLS_COSIM_ANALYZE_FACTS_HH

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace cosim_analyze {

/** One reported violation. */
struct Finding
{
    std::string file; ///< repo-relative path
    int line = 0;     ///< 1-based
    std::string rule;
    std::string message;

    /** The machine-readable "file:line: rule: message" form. */
    std::string format() const;

    bool
    operator==(const Finding& o) const
    {
        return file == o.file && line == o.line && rule == o.rule &&
               message == o.message;
    }
};

/** Which per-file rule groups apply to a file (see ruleSetFor). */
struct RuleSet
{
    bool determinism = false; ///< no-rand/-time/-system-clock/... group
    bool noRawNewDelete = false;
    bool noPrintf = false;
    bool noRawOfstream = false;
    bool planAtomicWrite = false; ///< plan writers use AtomicFile (src/)
    bool journalAtomicAppend = false; ///< journal writers use the
                                      ///< durable append helper (src/)
    bool intervalWallclock = false; ///< pure interval selection (trace/)
    bool headerGuard = true;
    bool includeHygiene = true;
    bool trailingWhitespace = true;
};

/**
 * Per-file suppression state parsed from `cosim-analyze:` directives
 * in comments. A line-level allow covers its own line and the next;
 * allow-file covers the whole file. Project-pass findings anchored at
 * a line in the file honor the same suppressions.
 */
struct Suppressions
{
    std::set<std::string> fileWide;
    std::set<std::pair<std::string, int>> lines; ///< (rule, 1-based)

    bool
    allows(const std::string& rule, int line) const
    {
        return fileWide.count(rule) > 0 || lines.count({rule, line}) > 0;
    }
};

/** One `#include` in the file. */
struct IncludeFact
{
    int line = 0;
    std::string path;
    bool angled = false;
};

/** A `cosim::Mutex` member (or namespace-scope mutex: empty cls). */
struct MutexDecl
{
    std::string cls;    ///< innermost class name, "" at namespace scope
    std::string member; ///< field / variable name
    int line = 0;
};

/**
 * How one lock acquisition site names its mutex. Resolution to a
 * global lock id happens in the lock-order pass, which can see every
 * file's MutexDecls:
 *   - cls + member: "mutex_" inside a method of `cls` (the class may
 *     be declared in another TU -- the header);
 *   - member only:  "shard.mutex" -- resolved by unique declaring
 *     class across the project;
 *   - raw only:     an expression the extractor could not classify;
 *     treated as file-local.
 */
struct LockRef
{
    std::string cls;
    std::string member;
    std::string raw; ///< always set: the source expression text

    bool
    operator==(const LockRef& o) const
    {
        return cls == o.cls && member == o.member && raw == o.raw;
    }
};

/** Direct nested acquisition inside one function: from is held when
 * to is acquired. */
struct LockEdge
{
    LockRef from, to;
    int line = 0;
};

/** A call site with the locks held at that point. */
struct LockCall
{
    std::string callee; ///< "Class::name" or bare "name"
    std::vector<LockRef> held;
    int line = 0;
};

/** Lock-relevant summary of one function definition. */
struct FuncLockFacts
{
    std::string qname; ///< "Class::name" or "name", last 2 components
    int line = 0;
    std::vector<LockRef> requiresLocks; ///< REQUIRES() at the def site
    std::vector<LockRef> acquireLocks;  ///< ACQUIRE() at the def site
    std::vector<std::pair<LockRef, int>> acquires; ///< LockGuard sites
    std::vector<LockEdge> edges;
    std::vector<LockCall> calls;
};

/** Everything stage one learned about one file. */
struct FileFacts
{
    std::string path; ///< repo-relative
    std::vector<Finding> findings; ///< per-file rule findings
    Suppressions suppressions;
    std::vector<IncludeFact> includes;
    std::vector<MutexDecl> mutexes;
    std::vector<FuncLockFacts> funcs;
};

/** One justified exception consumed by a project pass. Lines look
 * like `layering core -> trace: replay drivers feed the core loop`. */
struct AllowEntry
{
    std::string pass; ///< "layering" or "lock-order"
    std::string from, to;
    std::string justification;
    int line = 0; ///< in the allow file
};

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_FACTS_HH
