#include "base/fault.hh"

#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"

namespace cosim {
namespace {

bool
parseNth(const std::string& text, std::uint64_t* out, std::string* error)
{
    if (text.compare(0, 4, "nth=") != 0) {
        *error = "trigger '" + text + "' is not nth=K";
        return false;
    }
    const std::string value = text.substr(4);
    // Digits only: strtoull alone would take "-1" as 2^64 - 1, a hit
    // that never comes.
    errno = 0;
    const unsigned long long n = std::strtoull(value.c_str(), nullptr, 10);
    if (value.find_first_not_of("0123456789") != std::string::npos ||
        errno != 0 || n == 0) {
        *error = "nth wants a positive integer, got '" + value + "'";
        return false;
    }
    *out = n;
    return true;
}

} // namespace

FaultInjected::FaultInjected(const std::string& site, std::uint64_t hit)
    : std::runtime_error("injected fault at site '" + site + "' (hit " +
                         std::to_string(hit) + ")"),
      site_(site), hit_(hit)
{}

bool
FaultPlan::parse(const std::string& spec, FaultPlan* out,
                 std::string* error)
{
    FaultPlan plan;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(start, comma - start);
        start = comma + 1;
        if (item.empty()) {
            *error = "empty fault entry in '" + spec + "'";
            return false;
        }
        const std::size_t colon = item.find(':');
        if (colon == std::string::npos || colon == 0) {
            *error = "fault entry '" + item + "' is not site:nth=K";
            return false;
        }
        Site site;
        site.site = item.substr(0, colon);
        if (!parseNth(item.substr(colon + 1), &site.nth, error))
            return false;
        plan.sites.push_back(std::move(site));
        if (comma == spec.size())
            break;
    }
    if (plan.sites.empty()) {
        *error = "fault spec is empty";
        return false;
    }
    *out = std::move(plan);
    return true;
}

std::atomic<bool> FaultInjector::armed_{false};

FaultInjector&
FaultInjector::global()
{
    static FaultInjector instance;
    return instance;
}

void
FaultInjector::arm(const FaultPlan& plan)
{
    LockGuard lock(mutex_);
    sites_.clear();
    for (const FaultPlan::Site& s : plan.sites)
        sites_[s.site].nth = s.nth;
    armed_.store(!sites_.empty(), std::memory_order_relaxed);
}

void
FaultInjector::disarm()
{
    LockGuard lock(mutex_);
    sites_.clear();
    armed_.store(false, std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::evaluate(const char* site)
{
    LockGuard lock(mutex_);
    SiteState& state = sites_[site]; // unarmed sites still count hits
    if (++state.hits != state.nth)
        return 0;
    ++state.fired;
    return state.hits;
}

void
FaultInjector::hit(const char* site)
{
    const std::uint64_t at = evaluate(site);
    if (at != 0)
        throw FaultInjected(site, at);
}

bool
FaultInjector::shouldFail(const char* site)
{
    return evaluate(site) != 0;
}

std::uint64_t
FaultInjector::hits(const std::string& site) const
{
    LockGuard lock(mutex_);
    const auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.hits;
}

std::uint64_t
FaultInjector::fired(const std::string& site) const
{
    LockGuard lock(mutex_);
    const auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fired;
}

ScopedFaultPlan::ScopedFaultPlan(const std::string& spec)
{
    FaultPlan plan;
    std::string error;
    panic_if(!FaultPlan::parse(spec, &plan, &error),
             "bad fault spec in test: %s", error.c_str());
    FaultInjector::global().arm(plan);
}

} // namespace cosim
