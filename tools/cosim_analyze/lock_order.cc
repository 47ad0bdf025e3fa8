#include "tools/cosim_analyze/lock_order.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace cosim_analyze {

namespace {

// -------------------------------------------------------------------
// Stage one: extraction.
// -------------------------------------------------------------------

/** Code-token view helpers (kept local; rules.cc has its own copy). */
struct CV
{
    const TokenStream& ts;
    std::size_t size() const { return ts.code.size(); }
    const Token& at(std::size_t i) const { return ts.codeTok(i); }
    bool
    isPunct(std::size_t i, const char* t) const
    {
        return i < size() && at(i).isPunct(t);
    }
    bool
    isIdent(std::size_t i, const char* t) const
    {
        return i < size() && at(i).isIdent(t);
    }
};

/**
 * Member-call names that are standard-library vocabulary. A call
 * `x.store(0)` is almost always std::atomic, not some project class
 * that happens to have a unique `store` method -- resolving such
 * names by bare-name uniqueness manufactures false lock edges, so
 * they are never recorded as cross-TU calls.
 */
bool
isStdVocabulary(const std::string& s)
{
    static const std::set<std::string> kStd = {
        "store",   "load",       "exchange",   "fetch_add",
        "fetch_sub", "push_back", "emplace_back", "pop_back",
        "push",    "pop",        "front",      "back",
        "begin",   "end",        "rbegin",     "rend",
        "size",    "empty",      "clear",      "insert",
        "erase",   "find",       "count",      "at",
        "data",    "reserve",    "resize",     "get",
        "reset",   "release",    "swap",       "str",
        "c_str",   "substr",     "append",     "emplace",
        "wait",    "notify_one", "notify_all", "lock",
        "unlock",  "try_lock",   "tryLock",    "join",
        "detach",  "top",        "first",      "second",
    };
    return kStd.count(s) > 0;
}

bool
isKeywordNotAName(const std::string& s)
{
    static const std::set<std::string> kw = {
        "if",     "for",    "while",  "switch",   "catch",
        "return", "sizeof", "static_assert",      "alignof",
        "decltype", "new",  "delete", "throw",    "assert",
    };
    return kw.count(s) > 0;
}

/** Code index of the ')' matching the '(' at @p open, or npos. */
std::size_t
matchParen(const CV& cv, std::size_t open)
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

/**
 * Parse one lock-naming expression from code tokens [@p i, @p end):
 * `mutex_`, `shard.mutex`, `this->mutex_`, `other.mutex_`. @p cls is
 * the enclosing class (used when the expression is a bare member or
 * explicit `this->`).
 */
LockRef
parseLockExpr(const CV& cv, std::size_t i, std::size_t end,
              const std::string& cls)
{
    LockRef ref;
    std::vector<std::string> parts;
    for (std::size_t j = i; j < end; ++j) {
        const Token& t = cv.at(j);
        if (t.kind == TokKind::Ident)
            parts.push_back(t.text);
        ref.raw += t.text;
    }
    if (parts.empty())
        return ref;
    if (parts.size() == 1) {
        // Bare member (or local/namespace-scope mutex): resolve
        // against the enclosing class first.
        ref.cls = cls;
        ref.member = parts[0];
    } else if (parts[0] == "this") {
        ref.cls = cls;
        ref.member = parts.back();
    } else {
        // obj.member / obj->member: the declaring class is whatever
        // uniquely declares `member`, resolved in stage two.
        ref.member = parts.back();
    }
    return ref;
}

/** One entry of the held-locks stack. */
struct Held
{
    LockRef ref;
    int depth; ///< brace depth the guard lives at
};

struct Extractor
{
    const CV cv;
    FileFacts* out;

    // Class/namespace context: name pushed at its '{' depth.
    struct Scope
    {
        std::string cls; ///< "" for namespaces and plain blocks
        int depth;
    };
    std::vector<Scope> scopes;
    int depth = 0;

    std::string
    currentClass() const
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (!it->cls.empty())
                return it->cls;
        }
        return "";
    }

    // Pending class/struct head: set at the keyword, pushed at '{',
    // dropped at ';' (forward declaration).
    std::string pendingClass;
    bool havePendingClass = false;

    void
    run()
    {
        for (std::size_t i = 0; i < cv.size();)
            i = step(i);
    }

    std::size_t
    step(std::size_t i)
    {
        const Token& t = cv.at(i);

        if (t.isPunct("{")) {
            ++depth;
            if (havePendingClass) {
                scopes.push_back({pendingClass, depth});
                havePendingClass = false;
            }
            return i + 1;
        }
        if (t.isPunct("}")) {
            while (!scopes.empty() && scopes.back().depth == depth)
                scopes.pop_back();
            --depth;
            return i + 1;
        }
        if (t.isPunct(";")) {
            havePendingClass = false;
            return i + 1;
        }

        if (t.isIdent("class") || t.isIdent("struct")) {
            // Name is the last identifier of the head chain
            // (`struct Registry::Shard` -> Shard). An enum class
            // is not a scope we care about, but pushing its name is
            // harmless (it holds no mutexes or functions).
            std::size_t j = i + 1;
            std::string name;
            while (j < cv.size() &&
                   (cv.at(j).kind == TokKind::Ident ||
                    cv.isPunct(j, "::"))) {
                if (cv.at(j).kind == TokKind::Ident &&
                    cv.at(j).text != "alignas" &&
                    cv.at(j).text != "final")
                    name = cv.at(j).text;
                ++j;
            }
            if (!name.empty()) {
                pendingClass = name;
                havePendingClass = true;
            }
            return i + 1;
        }

        // Mutex member / variable: [cosim::] Mutex name ;
        if (t.isIdent("Mutex") && i + 1 < cv.size() &&
            cv.at(i + 1).kind == TokKind::Ident &&
            cv.isPunct(i + 2, ";")) {
            out->mutexes.push_back(MutexDecl{
                currentClass(), cv.at(i + 1).text, cv.at(i + 1).line});
            return i + 3;
        }

        // Function definition or annotated declaration.
        if (t.kind == TokKind::Ident && !isKeywordNotAName(t.text) &&
            cv.isPunct(i + 1, "(")) {
            std::size_t consumed = tryFunction(i);
            if (consumed != std::string::npos)
                return consumed;
        }
        return i + 1;
    }

    /**
     * Try to read a function at code index @p i (Ident followed by
     * '('). Returns the index to resume at, or npos when this is not
     * a function definition / annotated declaration.
     */
    std::size_t
    tryFunction(std::size_t i)
    {
        // Qualified name: look back across `Cls ::` chains.
        std::string cls = currentClass();
        std::string name = cv.at(i).text;
        if (i >= 2 && cv.isPunct(i - 1, "::") &&
            cv.at(i - 2).kind == TokKind::Ident)
            cls = cv.at(i - 2).text;
        // An initializer like `int x = foo();` is not a definition:
        // the '=' right before the (possibly qualified) name gives it
        // away, as does a '.'/'->' member call.
        std::size_t before = i;
        if (i >= 2 && cv.isPunct(i - 1, "::"))
            before = i - 2;
        if (before > 0 && (cv.isPunct(before - 1, "=") ||
                           cv.isPunct(before - 1, ".") ||
                           cv.isPunct(before - 1, "->") ||
                           cv.isPunct(before - 1, "(") ||
                           cv.isPunct(before - 1, ",") ||
                           cv.isIdent(before - 1, "return")))
            return std::string::npos;

        std::size_t close = matchParen(cv, i + 1);
        if (close == std::string::npos)
            return std::string::npos;

        // Scan the qualifier tail: const/noexcept/override/REQUIRES/
        // ACQUIRE/RELEASE/... until '{' (definition), ';'
        // (declaration), or something that says "not a function".
        FuncLockFacts fn;
        fn.qname = cls.empty() ? name : cls + "::" + name;
        fn.line = cv.at(i).line;
        bool annotated = false;
        std::size_t j = close + 1;
        while (j < cv.size()) {
            const Token& q = cv.at(j);
            if (q.isPunct("{") || q.isPunct(";"))
                break;
            if (q.kind == TokKind::Ident &&
                (q.text == "REQUIRES" || q.text == "ACQUIRE" ||
                 q.text == "ACQUIRE_SHARED" ||
                 q.text == "REQUIRES_SHARED" ||
                 q.text == "EXCLUDES" || q.text == "RELEASE" ||
                 q.text == "NO_THREAD_SAFETY_ANALYSIS") &&
                cv.isPunct(j + 1, "(")) {
                std::size_t aclose = matchParen(cv, j + 1);
                if (aclose == std::string::npos)
                    return std::string::npos;
                if (q.text == "REQUIRES" || q.text == "ACQUIRE") {
                    // Comma-separated lock expressions.
                    std::size_t arg = j + 2;
                    for (std::size_t k = j + 2; k <= aclose; ++k) {
                        if (cv.isPunct(k, ",") || k == aclose) {
                            if (k > arg) {
                                LockRef ref = parseLockExpr(cv, arg, k,
                                                            cls);
                                if (!ref.raw.empty()) {
                                    if (q.text == "REQUIRES")
                                        fn.requiresLocks.push_back(ref);
                                    else
                                        fn.acquireLocks.push_back(ref);
                                }
                            }
                            arg = k + 1;
                        }
                    }
                    annotated = true;
                }
                j = aclose + 1;
                continue;
            }
            if (q.kind == TokKind::Ident &&
                (q.text == "const" || q.text == "noexcept" ||
                 q.text == "override" || q.text == "final")) {
                ++j;
                continue;
            }
            // Member init list, trailing return, or not a function at
            // all (`x(3), y(4)` in an initializer list). Give up on
            // everything except a ':' init list, which we skip to the
            // '{' of.
            if (q.isPunct(":")) {
                while (j < cv.size() && !cv.isPunct(j, "{") &&
                       !cv.isPunct(j, ";"))
                    ++j;
                continue;
            }
            return std::string::npos;
        }
        if (j >= cv.size())
            return std::string::npos;

        if (cv.isPunct(j, ";")) {
            // Declaration: only interesting when annotated (headers
            // carry REQUIRES/ACQUIRE; the .cc body usually does not).
            if (annotated)
                out->funcs.push_back(std::move(fn));
            return j + 1;
        }

        // Definition body.
        std::size_t end = analyzeBody(j, &fn);
        out->funcs.push_back(std::move(fn));
        return end;
    }

    /** Walk the body starting at its '{' (code index @p open); fills
     * @p fn and returns the index just past the matching '}'. */
    std::size_t
    analyzeBody(std::size_t open, FuncLockFacts* fn)
    {
        const std::string cls =
            fn->qname.find("::") != std::string::npos
                ? fn->qname.substr(0, fn->qname.find("::"))
                : currentClass();
        std::vector<Held> held;
        for (const LockRef& r : fn->requiresLocks)
            held.push_back({r, 0}); // held for the whole body
        int bdepth = 0;
        std::size_t i = open;
        for (; i < cv.size(); ++i) {
            const Token& t = cv.at(i);
            if (t.isPunct("{")) {
                ++bdepth;
                continue;
            }
            if (t.isPunct("}")) {
                --bdepth;
                while (!held.empty() && held.back().depth > bdepth)
                    held.pop_back();
                if (bdepth == 0) {
                    ++i;
                    break;
                }
                continue;
            }

            // LockGuard g(expr);  (cosim:: qualifier already skipped
            // by keying on the Ident itself)
            if (t.isIdent("LockGuard") && i + 1 < cv.size() &&
                cv.at(i + 1).kind == TokKind::Ident &&
                cv.isPunct(i + 2, "(")) {
                std::size_t close = matchParen(cv, i + 2);
                if (close == std::string::npos)
                    continue;
                LockRef ref =
                    parseLockExpr(cv, i + 3, close, cls);
                if (!ref.raw.empty()) {
                    for (const Held& h : held)
                        fn->edges.push_back(
                            LockEdge{h.ref, ref, t.line});
                    fn->acquires.push_back({ref, t.line});
                    held.push_back({ref, bdepth});
                }
                i = close;
                continue;
            }

            // Call sites (only meaningful while a lock is held, or to
            // functions that themselves acquire -- stage two decides).
            if (t.kind == TokKind::Ident &&
                !isKeywordNotAName(t.text) && cv.isPunct(i + 1, "(") &&
                t.text != "LockGuard") {
                LockCall call;
                call.line = t.line;
                if (i >= 2 && cv.isPunct(i - 1, "::") &&
                    cv.at(i - 2).kind == TokKind::Ident) {
                    call.callee = cv.at(i - 2).text + "::" + t.text;
                } else if (i >= 1 && (cv.isPunct(i - 1, ".") ||
                                      cv.isPunct(i - 1, "->"))) {
                    if (isStdVocabulary(t.text))
                        continue; // std container/atomic method
                    call.callee = t.text; // member of some object
                } else {
                    call.callee = cls.empty()
                                      ? t.text
                                      : cls + "::" + t.text;
                }
                for (const Held& h : held)
                    call.held.push_back(h.ref);
                fn->calls.push_back(std::move(call));
            }
        }
        return i;
    }
};

// -------------------------------------------------------------------
// Stage two: resolution, call-graph closure, cycle detection.
// -------------------------------------------------------------------

/** Where one acquisition-order edge was observed. */
struct GlobalEdge
{
    std::string from, to; ///< resolved lock ids
    std::string file;
    int line = 0;
};

struct Resolver
{
    // member name -> set of classes declaring a Mutex of that name.
    std::map<std::string, std::set<std::string>> byMember;

    void
    index(const std::vector<FileFacts>& files)
    {
        for (const FileFacts& ff : files) {
            for (const MutexDecl& m : ff.mutexes)
                byMember[m.member].insert(m.cls);
        }
    }

    /** Global identity of @p ref observed in @p file. */
    std::string
    resolve(const LockRef& ref, const std::string& file) const
    {
        auto it = byMember.find(ref.member);
        if (!ref.member.empty() && it != byMember.end()) {
            if (!ref.cls.empty() && it->second.count(ref.cls))
                return ref.cls + "::" + ref.member;
            if (it->second.size() == 1) {
                const std::string& cls = *it->second.begin();
                return cls.empty() ? ref.member
                                   : cls + "::" + ref.member;
            }
        }
        if (!ref.cls.empty() && !ref.member.empty())
            return ref.cls + "::" + ref.member; // trust the context
        // Unresolvable: keep it file-local, keyed on the full source
        // expression, so unrelated locks that happen to share a member
        // spelling (a.mutex_ vs b.mutex_ with two declaring classes)
        // never merge into false cycles.
        return file + "#" + (ref.raw.empty() ? ref.member : ref.raw);
    }
};

} // namespace

void
extractLockFacts(const TokenStream& ts, FileFacts* out)
{
    Extractor ex{CV{ts}, out, {}, 0, {}, false};
    ex.run();
}

std::vector<Finding>
checkLockOrder(const std::vector<FileFacts>& files,
               const std::vector<AllowEntry>& allows,
               std::vector<bool>* used_allows)
{
    std::vector<Finding> findings;

    Resolver rs;
    rs.index(files);

    // Merge function summaries across TUs by qualified name; remember
    // which file each body lives in for edge provenance.
    struct FnInfo
    {
        std::set<std::string> acquiresAll; ///< resolved, transitive
        std::vector<std::pair<LockRef, int>> acquires;
        std::vector<LockEdge> edges;
        std::vector<LockCall> calls;
        std::string file;
    };
    std::map<std::string, FnInfo> fns;
    std::map<std::string, std::set<std::string>> byBareName;
    for (const FileFacts& ff : files) {
        for (const FuncLockFacts& f : ff.funcs) {
            FnInfo& info = fns[f.qname];
            for (const auto& [ref, line] : f.acquires) {
                info.acquires.push_back({ref, line});
                info.acquiresAll.insert(rs.resolve(ref, ff.path));
            }
            for (const LockRef& ref : f.acquireLocks)
                info.acquiresAll.insert(rs.resolve(ref, ff.path));
            for (const LockEdge& e : f.edges)
                info.edges.push_back(e);
            for (const LockCall& c : f.calls)
                info.calls.push_back(c);
            if (!f.edges.empty() || !f.calls.empty() ||
                info.file.empty())
                info.file = ff.path;
            const std::size_t sep = f.qname.rfind("::");
            byBareName[sep == std::string::npos
                           ? f.qname
                           : f.qname.substr(sep + 2)]
                .insert(f.qname);
        }
    }

    // Resolve a call-site name to a summarized function: exact qname
    // first, then unique bare name (member calls through an object).
    auto resolveCallee = [&](const std::string& callee)
        -> const FnInfo* {
        auto it = fns.find(callee);
        if (it != fns.end())
            return &it->second;
        const std::size_t sep = callee.rfind("::");
        const std::string bare =
            sep == std::string::npos ? callee : callee.substr(sep + 2);
        auto bn = byBareName.find(bare);
        if (bn != byBareName.end() && bn->second.size() == 1)
            return &fns.at(*bn->second.begin());
        return nullptr;
    };

    // Transitive closure of acquiresAll over the call graph.
    for (bool changed = true; changed;) {
        changed = false;
        for (auto& [qname, info] : fns) {
            for (const LockCall& c : info.calls) {
                const FnInfo* callee = resolveCallee(c.callee);
                if (!callee || callee == &info)
                    continue;
                for (const std::string& l : callee->acquiresAll)
                    changed |= info.acquiresAll.insert(l).second;
            }
        }
    }

    // Global acquisition-order edges: direct nesting plus
    // call-while-holding into anything the callee may acquire.
    std::vector<GlobalEdge> edges;
    std::map<std::string, const FileFacts*> byPath;
    for (const FileFacts& ff : files)
        byPath[ff.path] = &ff;
    for (const auto& [qname, info] : fns) {
        for (const LockEdge& e : info.edges)
            edges.push_back(GlobalEdge{rs.resolve(e.from, info.file),
                                       rs.resolve(e.to, info.file),
                                       info.file, e.line});
        for (const LockCall& c : info.calls) {
            if (c.held.empty())
                continue;
            const FnInfo* callee = resolveCallee(c.callee);
            if (!callee || callee == &info)
                continue;
            for (const std::string& to : callee->acquiresAll) {
                for (const LockRef& h : c.held)
                    edges.push_back(
                        GlobalEdge{rs.resolve(h, info.file), to,
                                   info.file, c.line});
            }
        }
    }

    auto edgeAllowed = [&](const std::string& from,
                           const std::string& to) {
        bool hit = false;
        for (std::size_t i = 0; i < allows.size(); ++i) {
            if (allows[i].pass == "lock-order" &&
                allows[i].from == from && allows[i].to == to) {
                (*used_allows)[i] = true;
                hit = true;
            }
        }
        return hit;
    };
    auto suppressed = [&](const GlobalEdge& e) {
        auto it = byPath.find(e.file);
        return it != byPath.end() &&
               it->second->suppressions.allows("lock-order-cycle",
                                               e.line);
    };

    // Adjacency with one representative site per (from, to).
    std::map<std::string, std::map<std::string, const GlobalEdge*>> adj;
    for (const GlobalEdge& e : edges) {
        auto& slot = adj[e.from][e.to];
        if (slot == nullptr)
            slot = &e;
    }

    // Self-edges first: re-acquiring a held non-recursive mutex
    // deadlocks on its own.
    std::set<std::string> reported_self;
    for (const GlobalEdge& e : edges) {
        if (e.from != e.to || !reported_self.insert(e.from).second)
            continue;
        if (edgeAllowed(e.from, e.to) || suppressed(e))
            continue;
        findings.push_back(Finding{
            e.file, e.line, "lock-order-cycle",
            "'" + e.from + "' acquired while already held "
            "(cosim::Mutex is non-recursive): self-deadlock"});
    }

    // Proper cycles via DFS over distinct locks.
    std::map<std::string, int> color;
    std::vector<std::string> stack;
    std::set<std::set<std::string>> seen;
    std::function<void(const std::string&)> visit =
        [&](const std::string& node) {
            color[node] = 1;
            stack.push_back(node);
            auto it = adj.find(node);
            if (it != adj.end()) {
                for (const auto& [next, edge] : it->second) {
                    if (next == node)
                        continue; // self-edges handled above
                    if (color[next] == 1) {
                        auto at = std::find(stack.begin(), stack.end(),
                                            next);
                        std::vector<std::string> cycle(at,
                                                       stack.end());
                        std::set<std::string> key(cycle.begin(),
                                                  cycle.end());
                        if (!seen.insert(key).second)
                            continue;
                        bool excused = suppressed(*edge);
                        std::string chain;
                        for (std::size_t k = 0; k < cycle.size();
                             ++k) {
                            const std::string& a = cycle[k];
                            const std::string& b =
                                cycle[(k + 1) % cycle.size()];
                            excused |= edgeAllowed(a, b);
                            chain += a + " -> ";
                        }
                        chain += next;
                        if (!excused)
                            findings.push_back(Finding{
                                edge->file, edge->line,
                                "lock-order-cycle",
                                "lock acquisition cycle: " + chain +
                                    "; a thread holding one side "
                                    "while another holds the other "
                                    "deadlocks"});
                    } else if (color[next] == 0) {
                        visit(next);
                    }
                }
            }
            stack.pop_back();
            color[node] = 2;
        };
    for (const auto& [node, _] : adj) {
        if (color[node] == 0)
            visit(node);
    }

    return findings;
}

} // namespace cosim_analyze
