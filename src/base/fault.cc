#include "base/fault.hh"

#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"

namespace cosim {
namespace {

/** FNV-1a over the site name: decorrelates per-site Rng streams. */
std::uint64_t
fnv1a(const std::string& s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

bool
parseTrigger(const std::string& text, FaultTrigger* out,
             std::string* error)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos) {
        *error = "trigger '" + text + "' is not nth=K or p=X";
        return false;
    }
    const std::string key = text.substr(0, eq);
    const std::string value = text.substr(eq + 1);
    if (value.empty()) {
        *error = "trigger '" + text + "' has an empty value";
        return false;
    }

    errno = 0;
    char* end = nullptr;
    if (key == "nth") {
        const unsigned long long n =
            std::strtoull(value.c_str(), &end, 10);
        if (errno != 0 || *end != '\0' || n == 0) {
            *error = "nth wants a positive integer, got '" + value +
                     "'";
            return false;
        }
        out->kind = FaultTrigger::Kind::Nth;
        out->nth = n;
        return true;
    }
    if (key == "p") {
        const double p = std::strtod(value.c_str(), &end);
        if (errno != 0 || *end != '\0' || !(p >= 0.0) || p > 1.0) {
            *error = "p wants a probability in [0, 1], got '" + value +
                     "'";
            return false;
        }
        out->kind = FaultTrigger::Kind::Probability;
        out->probability = p;
        return true;
    }
    *error = "unknown trigger '" + key + "' (want nth=K or p=X)";
    return false;
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
    plan.seed = out->seed;
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
            *error = "fault entry '" + item +
                     "' is not site:trigger";
            return false;
        }
        Site site;
        site.site = item.substr(0, colon);
        if (!parseTrigger(item.substr(colon + 1), &site.trigger, error))
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
    seed_ = plan.seed;
    for (const FaultPlan::Site& s : plan.sites) {
        SiteState state;
        state.trigger = s.trigger;
        state.rng = Rng(plan.seed ^ fnv1a(s.site));
        state.armed = true;
        sites_[s.site] = std::move(state);
    }
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
    ++state.hits;
    if (!state.armed)
        return 0;
    bool fires = false;
    switch (state.trigger.kind) {
      case FaultTrigger::Kind::Nth:
        fires = state.hits == state.trigger.nth;
        break;
      case FaultTrigger::Kind::Probability:
        fires = state.rng.nextBool(state.trigger.probability);
        break;
    }
    if (!fires)
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

ScopedFaultPlan::ScopedFaultPlan(const std::string& spec,
                                 std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    std::string error;
    panic_if(!FaultPlan::parse(spec, &plan, &error),
             "bad fault spec in test: %s", error.c_str());
    plan.seed = seed;
    FaultInjector::global().arm(plan);
}

} // namespace cosim
