/**
 * @file
 * Host-side profiler: where does *wall-clock* time go while simulating?
 *
 * The paper's headline claim is simulation speed (30-50 MIPS); making the
 * reproduction fast requires measuring the simulator itself, not just
 * the simulated machine. The profiler accumulates named wall-clock phase
 * timers (setup / run / report, per workload) plus the simulated
 * instructions and seconds the platform feeds it after every run, from
 * which the "host" stats group and run.json derive one simulated-MIPS
 * figure per process.
 */

#ifndef COSIM_OBS_HOST_PROFILER_HH
#define COSIM_OBS_HOST_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/annotations.hh"
#include "base/mutex.hh"
#include "base/stats.hh"

namespace cosim {
namespace obs {

/** See file comment. */
class HostProfiler
{
  public:
    /** Accumulated wall-clock of one named phase. */
    struct PhaseTotal
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t calls = 0;
    };

    /** The process-wide profiler. */
    static HostProfiler& global();

    /** Add @p seconds of wall-clock to phase @p name. */
    void accumulate(const std::string& name, double seconds);

    /** Record @p insts simulated in @p seconds of host time. */
    void addSimulated(std::uint64_t insts, double seconds);

    /**
     * Record that @p n host threads emulated Dragonheads this process.
     * Keeps the maximum seen, exported as the "emulation_threads" stat.
     */
    void noteEmulationThreads(unsigned n);
    unsigned emulationThreads() const;

    /**
     * Record @p n dead emulation workers whose emulators degraded to
     * serial emulation on the workload thread. Accumulates; exported
     * as the "degraded_to_serial" stat.
     */
    void noteDegradedToSerial(unsigned n);
    unsigned degradedToSerial() const;

    double seconds(const std::string& name) const;
    std::uint64_t calls(const std::string& name) const;

    /** Snapshot of the phases, in first-seen order. */
    std::vector<PhaseTotal> phases() const;

    std::uint64_t simulatedInsts() const;
    double simulatedSeconds() const;

    /** Simulated MIPS over everything addSimulated() recorded so far. */
    double simulatedMips() const;

    /** Human-readable per-phase report. */
    std::string report() const;

    /**
     * Snapshot as a stats::Group named @p name ("host" by default):
     * <phase>.seconds / <phase>.calls plus sim_insts / sim_mips.
     * The group copies current values (it does not track the profiler).
     */
    stats::Group statsGroup(const std::string& name = "host") const;

    void reset();

  private:
    PhaseTotal& phase(const std::string& name) REQUIRES(mutex_);

    // Parallel sweep cells and the emulator-bank drain accounting feed
    // the profiler concurrently.
    mutable Mutex mutex_;
    std::vector<PhaseTotal> phases_ GUARDED_BY(mutex_);
    std::uint64_t simInsts_ GUARDED_BY(mutex_) = 0;
    double simSeconds_ GUARDED_BY(mutex_) = 0.0;
    unsigned emuThreads_ GUARDED_BY(mutex_) = 0;
    unsigned degradedToSerial_ GUARDED_BY(mutex_) = 0;
};

/** RAII wall-clock timer accumulating into a HostProfiler phase. */
class ProfileScope
{
  public:
    explicit ProfileScope(std::string name,
                          HostProfiler& profiler = HostProfiler::global())
        : profiler_(profiler), name_(std::move(name)),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~ProfileScope()
    {
        profiler_.accumulate(
            name_, std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
    }

    ProfileScope(const ProfileScope&) = delete;
    ProfileScope& operator=(const ProfileScope&) = delete;

  private:
    HostProfiler& profiler_;
    std::string name_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace obs
} // namespace cosim

#endif // COSIM_OBS_HOST_PROFILER_HH
