/**
 * @file
 * Component statistics as plain values. A component's addStats() hook
 * appends its counters, as they stand when it is called, to a Group:
 * the host reads the rig once, as the paper's host read the Dragonhead
 * control block, and keeps the values it read.
 */

#ifndef COSIM_BASE_STATS_HH
#define COSIM_BASE_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cosim {
namespace stats {

/**
 * One component's counters: a dotted name ("cpu0.l1", "dragonhead0",
 * "cell/PLSA/fsb") and its (stat, value) pairs in the order they were
 * added. The rendered key of a stat is "<name>.<stat>".
 */
struct Group
{
    explicit Group(std::string group_name) : name(std::move(group_name))
    {}

    void add(std::string stat_name, double value)
    {
        values.emplace_back(std::move(stat_name), value);
    }

    bool operator==(const Group&) const = default;

    std::string name;
    std::vector<std::pair<std::string, double>> values;
};

/** Ratio helper that tolerates a zero denominator. */
inline double
safeRatio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Misses-per-kilo-instruction helper used across the harness. */
inline double
perKiloInst(std::uint64_t events, std::uint64_t insts)
{
    return insts == 0 ? 0.0
                      : 1000.0 * static_cast<double>(events) /
                            static_cast<double>(insts);
}

} // namespace stats
} // namespace cosim

#endif // COSIM_BASE_STATS_HH
