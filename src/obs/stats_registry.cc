#include "obs/stats_registry.hh"

#include <algorithm>
#include <cstdio>
#include <functional>

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

StatsRegistry::Shard&
StatsRegistry::shardFor(const std::string& name)
{
    return shards_[std::hash<std::string>{}(name) % kShards];
}

const StatsRegistry::Shard&
StatsRegistry::shardFor(const std::string& name) const
{
    return shards_[std::hash<std::string>{}(name) % kShards];
}

stats::Group&
StatsRegistry::add(stats::Group group)
{
    Shard& shard = shardFor(group.name());
    LockGuard lock(shard.mutex);
    for (Entry& e : shard.groups) {
        if (e.group.name() == group.name()) {
            // Replacement keeps its original sequence number, so
            // per-run re-registration is idempotent in dump order too.
            e.group = std::move(group);
            return e.group;
        }
    }
    shard.groups.push_back(
        Entry{nextOrder_.fetch_add(1, std::memory_order_relaxed),
              std::move(group)});
    return shard.groups.back().group;
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
    // Freeze outside our own locks: evaluating src's formulas may take
    // arbitrary time, and src may be *this. The sort keeps the
    // destination's relative order equal to src's.
    std::vector<FrozenGroup> frozen = src.collectAll();
    for (const FrozenGroup& fg : frozen) {
        if (fg.name.compare(0, from.size(), from) != 0)
            continue;
        // Build the whole frozen copy before add() takes a shard lock:
        // parallel cells snapshotting at once then only contend for the
        // final push, not for each formula allocation.
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
    for (Shard& shard : shards_) {
        LockGuard lock(shard.mutex);
        shard.groups.clear();
    }
}

std::size_t
StatsRegistry::removePrefix(const std::string& prefix)
{
    std::size_t removed = 0;
    for (Shard& shard : shards_) {
        LockGuard lock(shard.mutex);
        for (auto it = shard.groups.begin(); it != shard.groups.end();) {
            if (it->group.name().compare(0, prefix.size(), prefix) == 0) {
                it = shard.groups.erase(it);
                ++removed;
            } else {
                ++it;
            }
        }
    }
    return removed;
}

std::size_t
StatsRegistry::size() const
{
    std::size_t n = 0;
    for (const Shard& shard : shards_) {
        LockGuard lock(shard.mutex);
        n += shard.groups.size();
    }
    return n;
}

std::vector<StatsRegistry::FrozenGroup>
StatsRegistry::collectAll() const
{
    std::vector<FrozenGroup> out;
    out.reserve(size());
    for (const Shard& shard : shards_) {
        LockGuard lock(shard.mutex);
        for (const Entry& e : shard.groups) {
            FrozenGroup fg;
            fg.order = e.order;
            fg.name = e.group.name();
            fg.stats = e.group.collect();
            out.push_back(std::move(fg));
        }
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
    std::vector<std::string> out;
    std::vector<std::pair<std::uint64_t, std::string>> named;
    named.reserve(size());
    for (const Shard& shard : shards_) {
        LockGuard lock(shard.mutex);
        for (const Entry& e : shard.groups)
            named.emplace_back(e.order, e.group.name());
    }
    std::sort(named.begin(), named.end());
    out.reserve(named.size());
    for (auto& [order, name] : named)
        out.push_back(std::move(name));
    return out;
}

const stats::Group*
StatsRegistry::find(const std::string& name) const
{
    const Shard& shard = shardFor(name);
    LockGuard lock(shard.mutex);
    for (const Entry& e : shard.groups) {
        if (e.group.name() == name)
            return &e.group;
    }
    return nullptr;
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
