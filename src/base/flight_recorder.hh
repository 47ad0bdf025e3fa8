/**
 * @file
 * Crash flight recorder: per-thread ring buffers of recent events.
 *
 * When a sweep cell dies, run.json records *that* it failed; this
 * recorder captures *what the process was doing* just before. Each
 * thread owns a fixed-size ring of structured events (FSB chunks
 * published and emulated, fault-point arms and fires, worker deaths,
 * cell attempt boundaries). Recording is always on and wait free on the
 * owning thread: a handful of relaxed stores into pre-allocated atomic
 * slots plus one release store to publish. No locks, no allocation, no
 * I/O on the hot path.
 *
 * dumpAll() scrapes every ring (including those of exited threads --
 * rings are kept alive by a global registry) from whatever thread
 * handles the failure and feeds obs/postmortem.hh, which renders the
 * merged history into postmortem.json via writeFileAtomic. Readers and
 * writers never block each other; a dump taken while a thread is
 * mid-event may see that one slot torn (stale field mix), which is
 * acceptable for a post-mortem diagnostic and is why every slot field
 * is an individual atomic (keeps TSan clean).
 *
 * Site strings: note() stores the `const char*` it is given without
 * copying, so callers must pass string literals or other
 * static-storage strings. Per-thread context that is dynamic (the cell
 * a worker is running) goes through setThreadLabel(), which copies.
 */

#ifndef COSIM_BASE_FLIGHT_RECORDER_HH
#define COSIM_BASE_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cosim {

/** What a flight-recorder event describes. */
enum class FrKind : std::uint16_t {
    None = 0,        ///< empty slot
    Mark,            ///< free-form milestone; site names it
    ChunkPublished,  ///< FSB chunk queued to workers; a=txns, b=worker
    ChunkEmulated,   ///< worker finished a chunk; a=txns, b=worker
    WorkerDied,      ///< emulator worker poisoned its queue; a=worker
    FaultArmed,      ///< a fault plan was armed; a=#sites
    FaultFired,      ///< site fired; a=1-based hit index
    CellAttempt,     ///< guarded cell attempt started; a=attempt index
    CellDone,        ///< guarded cell attempt finished; a=attempt, b=ok
};

/** Stable lower-case name for @p kind ("chunk_published", ...). */
const char* frKindName(FrKind kind);

/** One decoded event, as returned by FlightRecorder::dumpAll(). */
struct FrEvent
{
    std::uint64_t seq = 0;  ///< global order across threads (1-based)
    std::uint64_t tUs = 0;  ///< hostClockNowUs() at record time
    FrKind kind = FrKind::None;
    const char* site = nullptr; ///< static string or nullptr
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** See file comment. All methods are static; state is process-wide. */
class FlightRecorder
{
  public:
    /** Events retained per thread. */
    static constexpr std::size_t kEventsPerThread = 128;

    /** Record an event on the calling thread's ring (see file comment
     * for the @p site lifetime contract). */
    static void note(FrKind kind, const char* site, std::uint64_t a = 0,
                     std::uint64_t b = 0);

    /** Label the calling thread's ring ("emu.worker/1", "cell/PLSA");
     * copied, so dynamic strings are fine here. */
    static void setThreadLabel(const std::string& label);

    /** One thread's retained history, oldest event first. */
    struct ThreadDump
    {
        std::string label;
        std::vector<FrEvent> events;
    };

    /** Snapshot every thread's ring (live and exited), in ring
     * registration order. Safe from any thread, any time. */
    static std::vector<ThreadDump> dumpAll();

    /** Drop all rings and reset the sequence counter (tests only;
     * racing note() calls on other threads are undefined). */
    static void reset();
};

} // namespace cosim

#endif // COSIM_BASE_FLIGHT_RECORDER_HH
