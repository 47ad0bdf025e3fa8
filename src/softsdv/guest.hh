/**
 * @file
 * Guest-side interfaces: what a workload must implement to run on the
 * virtual platform.
 *
 * SoftSDV ran unmodified guest binaries under VMX; our stand-in runs
 * instrumented C++ kernels. A Workload builds its data structures during
 * setUp() (outside the emulation window, like the OS boot and input
 * loading the paper excludes via start/stop messages), then exposes one
 * ThreadTask per software thread. The DEX scheduler time-slices the tasks
 * onto virtual cores; each task advances in small, bounded step() calls so
 * a quantum can end between steps, exactly as VMX preemption ended a
 * direct-execution slice.
 */

#ifndef COSIM_SOFTSDV_GUEST_HH
#define COSIM_SOFTSDV_GUEST_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hh"

namespace cosim {

class CoreContext;
class SimAllocator;

/** Per-run workload configuration. */
struct WorkloadConfig
{
    /** Number of software threads (one per virtual core). */
    unsigned nThreads = 1;

    /**
     * Input scale factor: 1.0 is the default reproduction input (sized so
     * working-set knees land where the paper reports them); tests use
     * much smaller values.
     */
    double scale = 1.0;

    /** Seed for synthetic data generation. */
    std::uint64_t seed = 42;
};

/**
 * One software thread of a workload. step() performs a small bounded unit
 * of work (a few hundred to a few thousand instructions) against the
 * CoreContext it is handed, and returns false when the thread has
 * finished.
 */
class ThreadTask
{
  public:
    virtual ~ThreadTask() = default;

    /** Advance by one unit of work. @return true iff more work remains. */
    virtual bool step(CoreContext& ctx) = 0;
};

/** A complete benchmark program. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short identifier, e.g. "FIMI". */
    virtual std::string name() const = 0;

    /** One-line description for reports. */
    virtual std::string description() const = 0;

    /**
     * Generate input data and allocate simulated address ranges.
     * Runs outside the emulation window (no simulated accesses).
     */
    virtual void setUp(const WorkloadConfig& cfg, SimAllocator& alloc) = 0;

    /** Create the task for software thread @p tid (0-based). */
    virtual std::unique_ptr<ThreadTask> createThread(unsigned tid) = 0;

    /**
     * Check the computed result after every thread finished.
     * @return true iff the workload produced a correct/plausible answer.
     */
    virtual bool verify() { return true; }

    /** Release input data (optional). */
    virtual void tearDown() {}
};

} // namespace cosim

#endif // COSIM_SOFTSDV_GUEST_HH
