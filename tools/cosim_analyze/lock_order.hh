/**
 * @file
 * Lock-order analyzer (project pass).
 *
 * Stage one (`extractLockFacts`) walks one file's token stream and
 * harvests: every `Mutex` member declaration with its enclosing class,
 * and a per-function summary -- locks named in `REQUIRES()` /
 * `ACQUIRE()` annotations, every `LockGuard` site with the locks
 * already held there (tracked through brace scopes), and every call
 * made while holding a lock.
 *
 * Stage two (`checkLockOrder`) resolves each lock reference to a
 * global identity ("TraceSession::mutex_"), using class context
 * first, then uniqueness of the member name across every declaring
 * class, falling back to a file-local identity so unrelated locks
 * never alias. Function summaries are merged across TUs by qualified
 * name (header declarations carry the annotations, .cc files the
 * bodies), transitive acquisition closes over the call graph, and the
 * resulting global acquisition-order graph must be acyclic: any cycle
 * -- including a self-edge, i.e. re-acquiring a held non-recursive
 * mutex -- is a potential static deadlock, reported as
 * `lock-order-cycle` unless `analysis.allow` carries a justified
 * `lock-order a -> b` entry for one of its edges.
 */

#ifndef COSIM_TOOLS_COSIM_ANALYZE_LOCK_ORDER_HH
#define COSIM_TOOLS_COSIM_ANALYZE_LOCK_ORDER_HH

#include <vector>

#include "tools/cosim_analyze/facts.hh"
#include "tools/cosim_analyze/lexer.hh"

namespace cosim_analyze {

/** Harvest mutex declarations and function lock summaries from @p ts
 * into @p out (appends to out->mutexes / out->funcs). */
void extractLockFacts(const TokenStream& ts, FileFacts* out);

/** Run the cross-TU lock-order pass. Consumed @p allows entries are
 * marked in @p used_allows (same size). */
std::vector<Finding> checkLockOrder(
    const std::vector<FileFacts>& files,
    const std::vector<AllowEntry>& allows,
    std::vector<bool>* used_allows);

} // namespace cosim_analyze

#endif // COSIM_TOOLS_COSIM_ANALYZE_LOCK_ORDER_HH
