/**
 * @file
 * Live sweep progress: heartbeats, a TTY view, and progress.jsonl.
 *
 * A multi-hour sweep must be observable while it runs and diagnosable
 * after it is killed. Three cooperating pieces:
 *
 *  - HeartbeatSlot: the producer side. Simulation threads publish
 *    progress with relaxed atomic stores only -- the DEX scheduler
 *    beats once per time slice (every 50k-instruction quantum), the
 *    emulator bank publishes queue depth. No locks, no I/O, no
 *    allocation on any workload thread; acceptance for --progress is
 *    that it adds *no blocking I/O* to workload threads.
 *
 *  - SweepProgress: the consumer side. One sampler thread polls every
 *    slot at a fixed period, derives per-cell MIPS from deltas,
 *    renders a one-line-per-cell live view to stderr (--progress;
 *    ANSI redraw on a TTY, plain appended lines otherwise), and
 *    appends machine-readable events to progress.jsonl
 *    (--progress-file). Cell lifecycle events (start/retry/fault/
 *    finish) are enqueued by the sweep threads as preformatted
 *    strings under a brief mutex and written out by the sampler, so
 *    file I/O never happens on a thread that runs simulation.
 *
 *  - ProgressStream: the JSONL appender. Every line is one complete
 *    JSON object `{"seq":N,"t_us":T,"event":"...",...}` written and
 *    flushed through base/atomic_file.hh's AppendFile, so the on-disk
 *    file is always well-formed line-by-line with densely increasing
 *    seq -- the wire format a future sweep service consumes, and what
 *    `cosim_inspect progress` validates in CI.
 *
 * Event vocabulary (all carry "seq" and "t_us"):
 *   sweep_start  figure, cells
 *   cell_start   cell, attempt
 *   heartbeat    cell, quanta, insts, sim_ms, mips, queue_peak
 *   cell_retry   cell, attempt, error
 *   fault        cell, site, hit
 *   resume_skip  cell               (--resume verified + skipped it)
 *   cell_finish  cell, status ("ok"|"failed"), wall_s [, error]
 *   sweep_finish ok, failed
 */

#ifndef COSIM_OBS_PROGRESS_HH
#define COSIM_OBS_PROGRESS_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/annotations.hh"
#include "base/atomic_file.hh"
#include "base/mutex.hh"

namespace cosim {
namespace obs {

/** Raise @p a to at least @p v (relaxed; monotone values only). */
inline void
atomicMax(std::atomic<std::uint64_t>& a, std::uint64_t v)
{
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/**
 * What one running cell publishes: progress counters. All stores
 * relaxed; the sampler is the only reader.
 */
class HeartbeatSlot
{
  public:
    /** One simulation quantum finished: @p insts instructions covering
     * @p sim_ns of simulated time. */
    void
    beat(std::uint64_t insts, std::uint64_t sim_ns)
    {
        quanta_.fetch_add(1, std::memory_order_relaxed);
        insts_.fetch_add(insts, std::memory_order_relaxed);
        simNs_.fetch_add(sim_ns, std::memory_order_relaxed);
    }

    /** Emulator-bank SPSC depth observed after a chunk was queued. */
    void
    noteQueueDepth(std::uint64_t depth)
    {
        atomicMax(queuePeak_, depth);
    }

    std::uint64_t
    quanta() const
    {
        return quanta_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    insts() const
    {
        return insts_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    simNs() const
    {
        return simNs_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    queuePeak() const
    {
        return queuePeak_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> quanta_{0};
    std::atomic<std::uint64_t> insts_{0};
    std::atomic<std::uint64_t> simNs_{0};
    std::atomic<std::uint64_t> queuePeak_{0};
};

/** JSONL event appender; see the file comment for the line shape. */
class ProgressStream
{
  public:
    /** Creates/truncates @p path. @throws IoError when it cannot. */
    explicit ProgressStream(const std::string& path);

    /**
     * Append one event line. @p json_fields is a preformatted JSON
     * fragment ('"cell":"PLSA",...', possibly empty); seq and t_us are
     * added here so numbering stays dense under concurrency. A failed
     * write warns once and turns further emits into no-ops.
     */
    void emit(const std::string& event, const std::string& json_fields)
        EXCLUDES(mutex_);

    const std::string& path() const { return file_.path(); }

  private:
    mutable Mutex mutex_;
    AppendFile file_ GUARDED_BY(mutex_);
    std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
    bool failed_ GUARDED_BY(mutex_) = false;
};

/** See file comment. */
class SweepProgress
{
  public:
    struct Options
    {
        bool tty = false;         ///< render the live stderr view
        std::string file;         ///< progress.jsonl path ("" = off)
        double periodSeconds = 0.25; ///< sampler tick
    };

    explicit SweepProgress(const Options& opts);
    ~SweepProgress();

    SweepProgress(const SweepProgress&) = delete;
    SweepProgress& operator=(const SweepProgress&) = delete;

    /** True when any output (TTY or file) is configured. */
    bool active() const { return opts_.tty || stream_ != nullptr; }

    /**
     * Register a cell; the returned index addresses it from then on.
     * Safe while the sampler runs (entries live in a deque).
     */
    std::size_t addCell(const std::string& label) EXCLUDES(mutex_);

    /** The slot cell @p idx's simulation threads publish into. */
    HeartbeatSlot* slot(std::size_t idx) EXCLUDES(mutex_);

    void cellStarted(std::size_t idx, unsigned attempt) EXCLUDES(mutex_);
    void cellRetried(std::size_t idx, unsigned attempt,
                     const std::string& error) EXCLUDES(mutex_);
    void cellFault(std::size_t idx, const std::string& site,
                   std::uint64_t hit) EXCLUDES(mutex_);
    /** --resume verified this cell's artifact and skipped re-running
     * it; marks the row finished-ok. */
    void cellResumeSkipped(std::size_t idx) EXCLUDES(mutex_);
    void cellFinished(std::size_t idx, bool ok, double wall_seconds,
                      const std::string& error) EXCLUDES(mutex_);

    /** Enqueue a non-cell event (sweep_start / sweep_finish). */
    void event(const std::string& event, const std::string& json_fields)
        EXCLUDES(mutex_);

    /** Launch the sampler thread (no-op unless active()). */
    void start();

    /**
     * Stop the sampler, drain queued events to the stream, and render
     * a final view. Idempotent; the destructor calls it too.
     */
    void stop();

  private:
    enum class CellState { Pending, Running, Ok, Failed };

    struct CellEntry
    {
        std::string label;
        HeartbeatSlot slot;
        std::atomic<CellState> state{CellState::Pending};
        // Sampler-private delta state (only the sampler thread reads
        // or writes these):
        std::uint64_t lastInsts = 0;
        std::uint64_t lastTickUs = 0;
        double lastMips = 0.0;
    };

    void samplerLoop();
    void drainEvents() EXCLUDES(mutex_);
    void enqueue(const std::string& event, const std::string& fields)
        EXCLUDES(mutex_);
    void
    enqueueLocked(const std::string& event, const std::string& fields)
        REQUIRES(mutex_)
    {
        if (stream_ != nullptr)
            pending_.push_back(PendingEvent{event, fields});
    }
    /** One sampler pass: read slots, stream heartbeats, render TTY. */
    void tick(bool emit_heartbeats) EXCLUDES(mutex_);
    std::size_t cellCount() const EXCLUDES(mutex_);

    Options opts_;
    std::unique_ptr<ProgressStream> stream_;

    mutable Mutex mutex_;
    // Deque: slot() pointers stay valid as cells are added.
    std::deque<CellEntry> cells_ GUARDED_BY(mutex_);
    struct PendingEvent
    {
        std::string event;
        std::string fields;
    };
    std::vector<PendingEvent> pending_ GUARDED_BY(mutex_);

    std::atomic<bool> stop_{false};
    std::thread sampler_;
    bool started_ = false;
    unsigned renderedLines_ = 0; ///< sampler/stop thread only
};

} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_PROGRESS_HH
