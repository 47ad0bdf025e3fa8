/**
 * @file
 * Process-wide statistics registry.
 *
 * Components keep exposing their counters exactly as before; what was
 * missing is one place that knows about *all* of them. A `StatsRegistry`
 * owns a set of `stats::Group`s (each component contributes one via its
 * `addStats()` hook) and renders the whole collection uniformly as text
 * ("component.stat value" lines), JSON, or CSV -- replacing the ad-hoc
 * per-component printf dumps the benches used to hand-roll.
 *
 * Naming scheme: group names are dotted component paths ("cpu0.l1",
 * "dragonhead0.llc.cc2", "dram"), stat names are bare ("misses"); the
 * rendered key is "<group>.<stat>".
 *
 * Registered groups hold lazily evaluated formulas that reference the
 * owning component, so a registry snapshot is only valid while those
 * components are alive. Re-registering a group name replaces the old
 * group, which makes per-run re-registration idempotent.
 *
 * Registration and dumping are mutex-protected so parallel sweep cells
 * can register concurrently; the *formulas themselves* still read
 * component state unlocked, so dump only while the components are quiet.
 *
 * Groups are kept by name, so a cell's "cell/<workload>/..." namespace
 * is one contiguous range. Every group also carries its registration
 * sequence number and all dumps sort by it: output order is
 * registration order, and a replaced group keeps its place.
 */

#ifndef COSIM_OBS_STATS_REGISTRY_HH
#define COSIM_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"
#include "base/stats.hh"

namespace cosim {
namespace obs {

/** See file comment. */
class StatsRegistry
{
  public:
    /** The process-wide registry (benches and examples share it). */
    static StatsRegistry& global();

    /**
     * Take ownership of @p group. A group with the same name is
     * replaced. @return a stable reference to the stored group.
     */
    stats::Group& add(stats::Group group);

    /** Convenience: create an empty group named @p name and return it. */
    stats::Group& makeGroup(const std::string& name);

    /**
     * Copy every group of @p src whose name starts with @p from into
     * this registry, renamed "<prefix><name without from>", with every
     * stat frozen to its current value. This is how parallel sweep
     * cells coexist: each cell registers its rig into a private
     * registry, then snapshots it into the global one under
     * "cell/<workload>/<config>/" -- the frozen values stay correct
     * after the cell's components are reset or destroyed. A non-empty
     * @p from selects (and re-roots) one cell's namespace.
     */
    void addSnapshotOf(const StatsRegistry& src, const std::string& prefix,
                       const std::string& from = "");

    /** Drop every registered group. */
    void clear();

    /**
     * Drop every group whose name starts with @p prefix; @return how
     * many were removed. A failed sweep cell's "cell/<workload>/..."
     * namespace is erased with this so the registry never holds a
     * half-populated cell. Invalidates references returned by add()
     * for the removed groups (callers only use those transiently).
     */
    std::size_t removePrefix(const std::string& prefix);

    std::size_t size() const;

    /** Registered group names, in registration order. */
    std::vector<std::string> groupNames() const;

    /** Lookup by name; nullptr when absent. */
    const stats::Group* find(const std::string& name) const;

    /** Every stat of every group as "group.stat value" lines. */
    std::string dumpText() const;

    /** One JSON object: {"group": {"stat": value, ...}, ...}. */
    std::string dumpJson() const;

    /** CSV with a "stat,value" header, one row per stat. */
    std::string dumpCsv() const;

    /**
     * Write a dump to @p path, picking the format from the extension
     * (".json" / ".csv", anything else is text). fatal() on I/O error.
     */
    void writeFile(const std::string& path) const;

  private:
    struct Entry
    {
        std::uint64_t order; ///< registration sequence
        stats::Group group;
    };

    /** One group's stats frozen to values, for order-sorted dumps. */
    struct FrozenGroup
    {
        std::uint64_t order = 0;
        std::string name;
        std::vector<std::pair<std::string, double>> stats;
    };

    /** Evaluate every group, registration-sorted. */
    std::vector<FrozenGroup> collectAll() const;

    mutable Mutex mutex_;
    // A node-based map: references returned by add() stay valid while
    // other groups are added and removed.
    std::map<std::string, Entry> groups_ GUARDED_BY(mutex_);
    std::uint64_t nextOrder_ GUARDED_BY(mutex_) = 0;
};

} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_STATS_REGISTRY_HH
