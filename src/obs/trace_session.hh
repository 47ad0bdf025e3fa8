/**
 * @file
 * Low-overhead structured event tracer with Chrome trace-event export.
 *
 * A `TraceSession` collects timestamped events -- duration spans,
 * instants, and counter samples -- and exports them as Chrome
 * trace-event JSON, loadable in chrome://tracing or Perfetto. Two clock
 * domains coexist in one trace as two "processes":
 *
 *   pid 0 "host"      wall-clock microseconds since start(); used by the
 *                     TRACE_SPAN macros to profile the simulator itself.
 *   pid 1 "simulated" emulated microseconds supplied by the caller; used
 *                     by the DEX scheduler (one span per core quantum,
 *                     tid = virtual core id) and the Dragonhead CB (one
 *                     counter sample per 500 us window).
 *
 * Cost model: when no session is active every hook is one relaxed atomic
 * load and a branch; the hot simulation loops pay nothing else. Defining
 * COSIM_NO_TRACING compiles the macros out entirely.
 */

#ifndef COSIM_OBS_TRACE_SESSION_HH
#define COSIM_OBS_TRACE_SESSION_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"

namespace cosim {
namespace obs {

/** The two clock domains of a trace (become Perfetto "processes"). */
enum class TraceDomain : std::uint32_t { Host = 0, Simulated = 1 };

/** One collected event. */
struct TraceEvent
{
    enum class Phase : char
    {
        Complete = 'X', ///< span with duration
        Instant = 'i',  ///< zero-duration marker
        Counter = 'C',  ///< one sample of a counter track
    };

    Phase phase = Phase::Instant;
    TraceDomain domain = TraceDomain::Host;
    std::uint32_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;  ///< Complete only
    double value = 0.0;  ///< Counter only
    bool hasArg = false; ///< Complete/Instant: emit value as an arg
    std::string name;
    std::string category;
};

/** See file comment. */
class TraceSession
{
  public:
    /** The process-wide session the macros and hooks record into. */
    static TraceSession& global();

    /** Begin collecting (clears previously collected events). */
    void start();

    /** Stop collecting; collected events stay available for export. */
    void stop();

    /** True while a session is collecting (hot-path gate). */
    bool active() const
    {
        return active_.load(std::memory_order_acquire);
    }

    /**
     * Host-clock timestamp: microseconds since the process-wide
     * monotonic origin (base/host_clock.hh). The origin never moves,
     * so spans recorded before and after a stop()/start() restart stay
     * on one axis, comparable with flight-recorder timestamps.
     */
    double hostNowUs() const;

    /** @name Recording (no-ops unless active) @{ */
    void recordComplete(TraceDomain domain, std::uint32_t tid,
                        const std::string& category,
                        const std::string& name, double ts_us,
                        double dur_us, double arg = 0.0,
                        bool has_arg = false);
    void recordInstant(TraceDomain domain, std::uint32_t tid,
                       const std::string& category,
                       const std::string& name, double ts_us);
    void recordCounter(TraceDomain domain, const std::string& name,
                       double ts_us, double value);
    /** @} */

    std::size_t eventCount() const;

    /** Snapshot of the collected events (test/inspection use). */
    std::vector<TraceEvent> events() const;

    /**
     * Export as Chrome trace-event JSON: a {"traceEvents": [...]} object
     * with process-name metadata for both domains and events ordered by
     * (pid, timestamp).
     */
    std::string exportJson() const;

    /** Write exportJson() to @p path; fatal() on I/O error. */
    void writeJson(const std::string& path) const;

    /** Drop collected events (does not change active state). */
    void clear();

  private:
    mutable Mutex mutex_;
    std::atomic<bool> active_{false};
    std::vector<TraceEvent> events_ GUARDED_BY(mutex_);
};

/**
 * RAII host-side span: measures wall-clock from construction to
 * destruction and records a Complete event in the Host domain.
 */
class TraceScope
{
  public:
    TraceScope(const char* category, const char* name,
               std::uint32_t tid = 0)
        : category_(category), name_(name), tid_(tid),
          armed_(TraceSession::global().active())
    {
        if (armed_)
            startUs_ = TraceSession::global().hostNowUs();
    }

    ~TraceScope()
    {
        if (!armed_)
            return;
        TraceSession& s = TraceSession::global();
        double end_us = s.hostNowUs();
        s.recordComplete(TraceDomain::Host, tid_, category_, name_,
                         startUs_, end_us - startUs_);
    }

    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

  private:
    const char* category_;
    const char* name_;
    std::uint32_t tid_;
    bool armed_;
    double startUs_ = 0.0;
};

} // namespace obs
} // namespace cosim

#ifndef COSIM_NO_TRACING

#define COSIM_TRACE_CAT2(a, b) a##b
#define COSIM_TRACE_CAT(a, b) COSIM_TRACE_CAT2(a, b)

/** Scoped host-side span (wall clock), e.g. TRACE_SPAN("sweep", "run"). */
#define TRACE_SPAN(category, name)                                           \
    ::cosim::obs::TraceScope COSIM_TRACE_CAT(cosim_trace_scope_,             \
                                             __LINE__)(category, name)

/** One sample of a host-domain counter track at the current host time. */
#define TRACE_COUNTER(name, value)                                           \
    do {                                                                     \
        ::cosim::obs::TraceSession& s_ = ::cosim::obs::TraceSession::global();\
        if (s_.active())                                                     \
            s_.recordCounter(::cosim::obs::TraceDomain::Host, name,          \
                             s_.hostNowUs(), static_cast<double>(value));    \
    } while (0)

/** Zero-duration host-domain marker at the current host time. */
#define TRACE_INSTANT(category, name)                                        \
    do {                                                                     \
        ::cosim::obs::TraceSession& s_ = ::cosim::obs::TraceSession::global();\
        if (s_.active())                                                     \
            s_.recordInstant(::cosim::obs::TraceDomain::Host, 0, category,   \
                             name, s_.hostNowUs());                          \
    } while (0)

#else

#define TRACE_SPAN(category, name) do { } while (0)
#define TRACE_COUNTER(name, value) do { } while (0)
#define TRACE_INSTANT(category, name) do { } while (0)

#endif // COSIM_NO_TRACING

#endif // COSIM_OBS_TRACE_SESSION_HH
