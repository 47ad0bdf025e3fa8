/**
 * @file
 * Deterministic, site-keyed fault injection.
 *
 * Long co-simulation campaigns are only trustworthy if their failure
 * paths are exercisable on demand: a worker thread dying mid-chunk, a
 * full disk truncating run.json, one sweep cell throwing. This header
 * provides the single switchboard for provoking those failures
 * reproducibly.
 *
 * A *site* is a stable string naming one failure point in the code;
 * kFaultSites lists every one the code declares. A FaultPlan maps
 * sites to the hit on which each fails:
 *
 *   --faults=site:nth=K[,site:nth=K,...]
 *
 *   nth=K   fire on the K-th hit of the site (1-based), once
 *
 * Code declares a failure point with COSIM_FAULT_POINT("site"): when
 * no plan is armed this compiles to a single predictable branch on a
 * relaxed atomic (no lock, no map lookup); when the armed plan's
 * trigger fires it throws FaultInjected. faultPending() is the
 * non-throwing variant for call sites that want to fail through their
 * normal error path (e.g. setting failbit on a stream) instead of via
 * an exception.
 *
 * Counting caveat: with nth=K and multiple threads hitting the same
 * site, *which* thread observes the K-th hit depends on scheduling;
 * the count itself is exact (taken under a mutex). Tests that need a
 * specific victim either run serially or assert "exactly one clean
 * error", not "worker 2 failed".
 */

#ifndef COSIM_BASE_FAULT_HH
#define COSIM_BASE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"

namespace cosim {

/**
 * Every site a COSIM_FAULT_POINT or faultPending() call declares.
 * `--faults` refuses any other name, so a misspelt site cannot arm a
 * plan that never fires; a new failure point is added here.
 */
inline constexpr const char* kFaultSites[] = {
    "cell.throw",         // a sweep cell throws as it starts
    "emu.worker.crash",   // an emulation worker throws mid-chunk
    "io.write.fail",      // an AtomicFile commit fails
    "journal.write.fail", // a sweep-journal append fails
};

/** Thrown by COSIM_FAULT_POINT when an armed trigger fires. */
class FaultInjected : public std::runtime_error
{
  public:
    FaultInjected(const std::string& site, std::uint64_t hit);

    const std::string& site() const { return site_; }
    /** 1-based hit count at which the fault fired. */
    std::uint64_t hit() const { return hit_; }

  private:
    std::string site_;
    std::uint64_t hit_;
};

/**
 * A parsed --faults= spec: which sites fail, and on which hit. Any
 * site name parses; the harness checks names against kFaultSites.
 */
struct FaultPlan
{
    struct Site
    {
        std::string site;
        std::uint64_t nth = 1; ///< 1-based hit on which the site fails
    };

    std::vector<Site> sites;

    bool empty() const { return sites.empty(); }

    /**
     * Parse "site:nth=K[,site:nth=K,...]" into @p out. @return false
     * with a human-readable message in @p error on malformed input.
     */
    static bool parse(const std::string& spec, FaultPlan* out,
                      std::string* error);
};

/**
 * Process-wide fault switchboard. Sites are evaluated against the
 * armed plan; unarmed sites still count hits (visible via hits()) but
 * never fire. See file comment for the fast-path contract.
 */
class FaultInjector
{
  public:
    static FaultInjector& global();

    /** True iff a non-empty plan is armed; lock-free fast path. */
    static bool
    enabled()
    {
        return armed_.load(std::memory_order_relaxed);
    }

    void arm(const FaultPlan& plan) EXCLUDES(mutex_);
    void disarm() EXCLUDES(mutex_);

    /** Count a hit of @p site; throws FaultInjected if it fires. */
    void hit(const char* site) EXCLUDES(mutex_);

    /**
     * Count a hit of @p site; @return true if it fires. For call
     * sites that fail through their normal error path rather than by
     * exception.
     */
    bool shouldFail(const char* site) EXCLUDES(mutex_);

    /** Total hits recorded for @p site since the last arm(). */
    std::uint64_t hits(const std::string& site) const EXCLUDES(mutex_);

    /** Times @p site actually fired since the last arm(). */
    std::uint64_t fired(const std::string& site) const EXCLUDES(mutex_);

  private:
    FaultInjector() = default;

    struct SiteState
    {
        std::uint64_t nth = 0; ///< 0 for an unarmed site: never fires
        std::uint64_t hits = 0;
        std::uint64_t fired = 0;
    };

    /** @return the 1-based hit index if the site fires, else 0. */
    std::uint64_t evaluate(const char* site) EXCLUDES(mutex_);

    static std::atomic<bool> armed_;

    mutable Mutex mutex_;
    std::map<std::string, SiteState> sites_ GUARDED_BY(mutex_);
};

/**
 * Non-throwing probe: true when a plan is armed and @p site fires on
 * this hit. Compiles to one predictable branch when nothing is armed.
 */
inline bool
faultPending(const char* site)
{
    return FaultInjector::enabled() &&
           FaultInjector::global().shouldFail(site);
}

/**
 * Declares a failure point. No plan armed: a single relaxed-atomic
 * branch. Armed and the site's trigger fires: throws FaultInjected.
 */
#define COSIM_FAULT_POINT(site)                                        \
    do {                                                               \
        if (::cosim::FaultInjector::enabled())                         \
            ::cosim::FaultInjector::global().hit(site);                \
    } while (0)

/** RAII plan for tests: arms on construction, disarms on scope exit. */
class ScopedFaultPlan
{
  public:
    explicit ScopedFaultPlan(const FaultPlan& plan)
    {
        FaultInjector::global().arm(plan);
    }

    /** Arm from a spec string; panics on parse error (test misuse). */
    explicit ScopedFaultPlan(const std::string& spec);

    ~ScopedFaultPlan() { FaultInjector::global().disarm(); }

    ScopedFaultPlan(const ScopedFaultPlan&) = delete;
    ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

} // namespace cosim

#endif // COSIM_BASE_FAULT_HH
