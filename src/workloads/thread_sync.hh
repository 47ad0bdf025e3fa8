/**
 * @file
 * Cooperative synchronization for DEX-scheduled workload threads.
 *
 * These primitives are plain state machines -- no atomics: the DEX
 * scheduler runs every virtual core on one host thread. A blocked task
 * calls ctx.yield() so the scheduler donates the rest of its slice
 * instead of letting it spin, which keeps barrier idling from polluting
 * the instruction counts that MPKI is normalized by.
 */

#ifndef COSIM_WORKLOADS_THREAD_SYNC_HH
#define COSIM_WORKLOADS_THREAD_SYNC_HH

#include <cstdint>
#include <functional>

#include "base/logging.hh"
#include "softsdv/core_context.hh"

namespace cosim {

/**
 * A generational barrier. The last task to arrive runs the release
 * callback (typically "advance the shared phase") and bumps the
 * generation, releasing everyone.
 */
class PhaseBarrier
{
  public:
    PhaseBarrier() = default;

    /** Configure for @p parties tasks; clears all state. */
    void
    init(unsigned parties)
    {
        fatal_if(parties == 0, "barrier needs at least one party");
        parties_ = parties;
        arrived_ = 0;
        generation_ = 0;
    }

    /** Callback run by the last arriver, before release. */
    void setOnRelease(std::function<void()> fn) { onRelease_ = std::move(fn); }

    std::uint64_t generation() const { return generation_; }

    /** Register one arrival; the last arrival releases the barrier. */
    void
    arrive()
    {
        panic_if(parties_ == 0, "barrier used before init()");
        if (++arrived_ == parties_) {
            arrived_ = 0;
            if (onRelease_)
                onRelease_();
            ++generation_;
        }
    }

  private:
    unsigned parties_ = 0;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
    std::function<void()> onRelease_;
};

/**
 * Per-task barrier client. Call wait() once per step() while it returns
 * true (the caller should charge a few idle instructions, yield, and
 * return); when it returns false the barrier has released this task.
 */
class BarrierWaiter
{
  public:
    /** @return true while the task must keep waiting. */
    bool
    wait(PhaseBarrier& barrier, CoreContext& ctx)
    {
        if (!arrived_) {
            waitGen_ = barrier.generation();
            barrier.arrive();
            arrived_ = true;
        }
        if (barrier.generation() == waitGen_) {
            ctx.compute(16); // the check-and-pause instructions
            ctx.yield();
            return true;
        }
        arrived_ = false;
        return false;
    }

  private:
    bool arrived_ = false;
    std::uint64_t waitGen_ = 0;
};

} // namespace cosim

#endif // COSIM_WORKLOADS_THREAD_SYNC_HH
