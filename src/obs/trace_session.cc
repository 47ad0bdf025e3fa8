#include "obs/trace_session.hh"

#include <algorithm>

#include "base/atomic_file.hh"
#include "base/host_clock.hh"
#include "base/logging.hh"
#include "obs/json.hh"

namespace cosim {
namespace obs {

TraceSession&
TraceSession::global()
{
    static TraceSession instance;
    return instance;
}

void
TraceSession::start()
{
    LockGuard lock(mutex_);
    events_.clear();
    // The host-time origin is deliberately NOT captured here: it is
    // the process-wide one from base/host_clock.hh, pinned at first
    // use. Re-capturing per start() is what used to skew host spans
    // against control-block tracks after a reset.
    active_.store(true, std::memory_order_release);
}

void
TraceSession::stop()
{
    active_.store(false, std::memory_order_release);
}

double
TraceSession::hostNowUs() const
{
    return static_cast<double>(hostClockNowUs());
}

void
TraceSession::recordComplete(TraceDomain domain, std::uint32_t tid,
                             const std::string& category,
                             const std::string& name, double ts_us,
                             double dur_us, double arg, bool has_arg)
{
    if (!active())
        return;
    LockGuard lock(mutex_);
    TraceEvent e;
    e.phase = TraceEvent::Phase::Complete;
    e.domain = domain;
    e.tid = tid;
    e.tsUs = ts_us;
    e.durUs = dur_us;
    e.value = arg;
    e.hasArg = has_arg;
    e.name = name;
    e.category = category;
    events_.push_back(std::move(e));
}

void
TraceSession::recordInstant(TraceDomain domain, std::uint32_t tid,
                            const std::string& category,
                            const std::string& name, double ts_us)
{
    if (!active())
        return;
    LockGuard lock(mutex_);
    TraceEvent e;
    e.phase = TraceEvent::Phase::Instant;
    e.domain = domain;
    e.tid = tid;
    e.tsUs = ts_us;
    e.name = name;
    e.category = category;
    events_.push_back(std::move(e));
}

void
TraceSession::recordCounter(TraceDomain domain, const std::string& name,
                            double ts_us, double value)
{
    if (!active())
        return;
    LockGuard lock(mutex_);
    TraceEvent e;
    e.phase = TraceEvent::Phase::Counter;
    e.domain = domain;
    e.tsUs = ts_us;
    e.value = value;
    e.name = name;
    e.category = "counter";
    events_.push_back(std::move(e));
}

std::size_t
TraceSession::eventCount() const
{
    LockGuard lock(mutex_);
    return events_.size();
}

std::vector<TraceEvent>
TraceSession::events() const
{
    LockGuard lock(mutex_);
    return events_;
}

std::string
TraceSession::exportJson() const
{
    std::vector<TraceEvent> sorted = events();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.domain != b.domain)
                             return static_cast<std::uint32_t>(a.domain) <
                                    static_cast<std::uint32_t>(b.domain);
                         return a.tsUs < b.tsUs;
                     });

    std::string out = "{\"traceEvents\":[\n";
    // Process-name metadata so Perfetto labels the two clock domains.
    out += "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
           "\"args\":{\"name\":\"host\"}},\n";
    out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"simulated\"}}";

    for (const TraceEvent& e : sorted) {
        out += ",\n{\"ph\":\"";
        out += static_cast<char>(e.phase);
        out += "\",\"pid\":";
        out += json::number(static_cast<double>(
            static_cast<std::uint32_t>(e.domain)));
        out += ",\"tid\":" + json::number(static_cast<double>(e.tid));
        out += ",\"ts\":" + json::number(e.tsUs);
        if (e.phase == TraceEvent::Phase::Complete)
            out += ",\"dur\":" + json::number(e.durUs);
        out += ",\"name\":" + json::quote(e.name);
        if (!e.category.empty())
            out += ",\"cat\":" + json::quote(e.category);
        if (e.phase == TraceEvent::Phase::Counter)
            out += ",\"args\":{\"value\":" + json::number(e.value) + "}";
        else if (e.hasArg)
            out += ",\"args\":{\"insts\":" + json::number(e.value) + "}";
        if (e.phase == TraceEvent::Phase::Instant)
            out += ",\"s\":\"t\"";
        out += "}";
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

void
TraceSession::writeJson(const std::string& path) const
{
    try {
        writeFileAtomic(path, exportJson());
    } catch (const IoError& e) {
        fatal("trace: %s", e.what());
    }
}

void
TraceSession::clear()
{
    LockGuard lock(mutex_);
    events_.clear();
}

} // namespace obs
} // namespace cosim
