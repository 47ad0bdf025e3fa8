#include "obs/stats_registry.hh"

#include <algorithm>
#include <cstdio>

#include "base/atomic_file.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "obs/json.hh"

namespace cosim {
namespace obs {

StatsRegistry&
StatsRegistry::global()
{
    static StatsRegistry instance;
    return instance;
}

stats::Group&
StatsRegistry::add(stats::Group group)
{
    LockGuard lock(mutex_);
    auto it = groups_.find(group.name());
    if (it != groups_.end()) {
        // Replacement keeps its original sequence number, so per-run
        // re-registration is idempotent in dump order too.
        it->second.group = std::move(group);
        return it->second.group;
    }
    std::string name = group.name();
    it = groups_.emplace(std::move(name),
                         Entry{nextOrder_++, std::move(group)})
             .first;
    return it->second.group;
}

stats::Group&
StatsRegistry::makeGroup(const std::string& name)
{
    return add(stats::Group(name));
}

void
StatsRegistry::addSnapshotOf(const StatsRegistry& src,
                             const std::string& prefix,
                             const std::string& from)
{
    // Freeze outside our own lock: evaluating src's formulas may take
    // arbitrary time, and src may be *this. The sort keeps the
    // destination's relative order equal to src's.
    std::vector<FrozenGroup> frozen = src.collectAll();
    for (const FrozenGroup& fg : frozen) {
        if (fg.name.compare(0, from.size(), from) != 0)
            continue;
        // Build the whole frozen copy before add() takes the lock:
        // parallel cells snapshotting at once then only contend for the
        // final insert, not for each formula allocation.
        stats::Group copy(prefix + fg.name.substr(from.size()));
        copy.reserve(0, fg.stats.size());
        for (const auto& [stat_name, value] : fg.stats)
            copy.add(stat_name, [value = value] { return value; });
        add(std::move(copy));
    }
}

void
StatsRegistry::clear()
{
    LockGuard lock(mutex_);
    groups_.clear();
}

std::size_t
StatsRegistry::removePrefix(const std::string& prefix)
{
    LockGuard lock(mutex_);
    // Names sharing a prefix sort contiguously from the prefix itself.
    auto first = groups_.lower_bound(prefix);
    auto last = first;
    std::size_t removed = 0;
    while (last != groups_.end() &&
           last->first.compare(0, prefix.size(), prefix) == 0) {
        ++last;
        ++removed;
    }
    groups_.erase(first, last);
    return removed;
}

std::size_t
StatsRegistry::size() const
{
    LockGuard lock(mutex_);
    return groups_.size();
}

std::vector<StatsRegistry::FrozenGroup>
StatsRegistry::collectAll() const
{
    std::vector<FrozenGroup> out;
    {
        LockGuard lock(mutex_);
        out.reserve(groups_.size());
        for (const auto& [name, e] : groups_)
            out.push_back(FrozenGroup{e.order, name, e.group.collect()});
    }
    std::sort(out.begin(), out.end(),
              [](const FrozenGroup& a, const FrozenGroup& b) {
                  return a.order < b.order;
              });
    return out;
}

std::vector<std::string>
StatsRegistry::groupNames() const
{
    std::vector<std::pair<std::uint64_t, std::string>> named;
    {
        LockGuard lock(mutex_);
        named.reserve(groups_.size());
        for (const auto& [name, e] : groups_)
            named.emplace_back(e.order, name);
    }
    std::sort(named.begin(), named.end());
    std::vector<std::string> out;
    out.reserve(named.size());
    for (auto& [order, name] : named)
        out.push_back(std::move(name));
    return out;
}

const stats::Group*
StatsRegistry::find(const std::string& name) const
{
    LockGuard lock(mutex_);
    auto it = groups_.find(name);
    return it == groups_.end() ? nullptr : &it->second.group;
}

std::string
StatsRegistry::dumpText() const
{
    std::string out;
    for (const FrozenGroup& fg : collectAll()) {
        for (const auto& [stat_name, value] : fg.stats) {
            char line[256];
            std::snprintf(line, sizeof(line), "%s.%s %.6g\n",
                          fg.name.c_str(), stat_name.c_str(), value);
            out += line;
        }
    }
    return out;
}

std::string
StatsRegistry::dumpJson() const
{
    std::string out = "{";
    bool first_group = true;
    for (const FrozenGroup& fg : collectAll()) {
        if (!first_group)
            out += ",";
        first_group = false;
        out += "\n  " + json::quote(fg.name) + ": {";
        bool first_stat = true;
        for (const auto& [stat_name, value] : fg.stats) {
            if (!first_stat)
                out += ",";
            first_stat = false;
            out += "\n    " + json::quote(stat_name) + ": " +
                   json::number(value);
        }
        out += "\n  }";
    }
    out += "\n}\n";
    return out;
}

std::string
StatsRegistry::dumpCsv() const
{
    std::string out = "stat,value\n";
    for (const FrozenGroup& fg : collectAll()) {
        for (const auto& [stat_name, value] : fg.stats) {
            out += fg.name + "." + stat_name + "," + json::number(value) +
                   "\n";
        }
    }
    return out;
}

void
StatsRegistry::writeFile(const std::string& path) const
{
    std::string body;
    if (path.size() >= 5 && path.substr(path.size() - 5) == ".json")
        body = dumpJson();
    else if (path.size() >= 4 && path.substr(path.size() - 4) == ".csv")
        body = dumpCsv();
    else
        body = dumpText();

    // Atomic write so a crash or full disk never leaves a truncated
    // dump that looks complete; a failed write exits nonzero with the
    // path instead of printing success over a torn file.
    try {
        writeFileAtomic(path, body);
    } catch (const IoError& e) {
        fatal("stats: %s", e.what());
    }
}

} // namespace obs
} // namespace cosim
