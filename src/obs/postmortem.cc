#include "obs/postmortem.hh"

#include "base/atomic_file.hh"
#include "base/fault.hh"
#include "base/flight_recorder.hh"
#include "base/host_clock.hh"
#include "base/logging.hh"
#include "base/mutex.hh"
#include "obs/json.hh"

namespace cosim {
namespace obs {

namespace {

std::string
renderFaultSites()
{
    std::string out = "[";
    bool first = true;
    for (const FaultInjector::SiteReport& site :
         FaultInjector::global().report()) {
        if (!first)
            out += ",";
        first = false;
        out += "\n    {\"site\":" + json::quote(site.site) +
               ",\"hits\":" + std::to_string(site.hits) +
               ",\"fired\":" + std::to_string(site.fired) +
               ",\"armed\":" + (site.armed ? "true" : "false") + "}";
    }
    out += first ? "]" : "\n  ]";
    return out;
}

std::string
renderThreads()
{
    std::string out = "[";
    bool first_thread = true;
    for (const FlightRecorder::ThreadDump& dump :
         FlightRecorder::dumpAll()) {
        if (dump.events.empty() && dump.label.empty())
            continue;
        if (!first_thread)
            out += ",";
        first_thread = false;
        out += "\n    {\"label\":" + json::quote(dump.label) +
               ",\"events\":[";
        bool first_event = true;
        for (const FrEvent& ev : dump.events) {
            if (!first_event)
                out += ",";
            first_event = false;
            out += "\n      {\"seq\":" + std::to_string(ev.seq) +
                   ",\"t_us\":" + std::to_string(ev.tUs) +
                   ",\"kind\":" + json::quote(frKindName(ev.kind)) +
                   ",\"site\":" +
                   json::quote(ev.site != nullptr ? ev.site : "") +
                   ",\"a\":" + std::to_string(ev.a) +
                   ",\"b\":" + std::to_string(ev.b) + "}";
        }
        out += first_event ? "]}" : "\n    ]}";
    }
    out += first_thread ? "]" : "\n  ]";
    return out;
}

// Fatal-hook plumbing: the hook is a capture-less function pointer, so
// the target path (and the last cell context) live in mutex-guarded
// globals.
Mutex g_fatal_path_mutex;
std::string g_fatal_path GUARDED_BY(g_fatal_path_mutex);
std::string g_context_cell GUARDED_BY(g_fatal_path_mutex);
unsigned g_context_attempt GUARDED_BY(g_fatal_path_mutex) = 0;

void
fatalPostmortemHook(const std::string& msg)
{
    PostmortemInfo info;
    std::string path;
    {
        LockGuard lock(g_fatal_path_mutex);
        path = g_fatal_path;
        info.cell = g_context_cell;
        info.attempt = g_context_attempt;
    }
    if (path.empty())
        return;
    info.reason = "fatal";
    info.error = msg;
    writePostmortem(path, info);
}

} // namespace

std::string
renderPostmortem(const PostmortemInfo& info)
{
    std::string out = "{\n";
    out += "  \"schema\": \"cosim-postmortem/1\",\n";
    out += "  \"t_us\": " + std::to_string(hostClockNowUs()) + ",\n";
    out += "  \"reason\": " + json::quote(info.reason) + ",\n";
    out += "  \"cell\": " + json::quote(info.cell) + ",\n";
    out += "  \"attempt\": " + std::to_string(info.attempt) + ",\n";
    out += "  \"error\": " + json::quote(info.error) + ",\n";
    out += "  \"fault_sites\": " + renderFaultSites() + ",\n";
    out += "  \"threads\": " + renderThreads() + "\n";
    out += "}\n";
    return out;
}

bool
writePostmortem(const std::string& path, const PostmortemInfo& info)
{
    // Best-effort by contract: a failing diagnostic write must not
    // mask or compound the failure being reported.
    try {
        writeFileAtomic(path, renderPostmortem(info));
    } catch (const IoError& e) {
        warn("postmortem: %s", e.what());
        return false;
    }
    return true;
}

void
installFatalPostmortem(const std::string& path)
{
    LockGuard lock(g_fatal_path_mutex);
    g_fatal_path = path;
    setFatalHook(path.empty() ? nullptr : &fatalPostmortemHook);
}

void
setPostmortemContext(const std::string& cell, unsigned attempt)
{
    LockGuard lock(g_fatal_path_mutex);
    g_context_cell = cell;
    g_context_attempt = attempt;
}

} // namespace obs
} // namespace cosim
