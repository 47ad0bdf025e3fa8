/**
 * @file
 * The handle a workload thread uses to touch simulated memory.
 *
 * Every load/store/compute call flows into the virtual core the DEX
 * scheduler currently has the thread running on. The context also tracks
 * quantum consumption so the scheduler can preempt between step() calls.
 */

#ifndef COSIM_SOFTSDV_CORE_CONTEXT_HH
#define COSIM_SOFTSDV_CORE_CONTEXT_HH

#include "base/types.hh"
#include "softsdv/cpu_model.hh"

namespace cosim {

/** See file comment. */
class CoreContext
{
  public:
    explicit CoreContext(CpuModel* cpu);

    /**
     * Read @p size bytes at simulated address @p addr, counted as
     * @p n_insts load instructions (0 = max(1, size/8)).
     */
    void load(Addr addr, std::uint32_t size, InstCount n_insts = 0) {
        cpu_->dataAccess(addr, size, false, n_insts);
    }

    /** Write @p size bytes, counted as @p n_insts store instructions. */
    void store(Addr addr, std::uint32_t size, InstCount n_insts = 0) {
        cpu_->dataAccess(addr, size, true, n_insts);
    }

    /** Account @p n non-memory instructions. */
    void compute(std::uint64_t n) { cpu_->computeOps(n); }

    /**
     * Give up the rest of this DEX slice (a guest thread blocking on a
     * barrier or a not-yet-ready dependency). The scheduler moves on to
     * the next virtual core instead of letting the thread spin through
     * its quantum.
     */
    void yield() { yielded_ = true; }

    /** Scheduler-side: did the task yield during the last step? */
    bool yielded() const { return yielded_; }

    /** Scheduler-side: re-arm for the next step. */
    void clearYield() { yielded_ = false; }

    /** Virtual core this thread is currently scheduled on. */
    CoreId coreId() const { return cpu_->id(); }

    /** Instructions retired by this core so far. */
    InstCount instsExecuted() const { return cpu_->insts(); }

    /** The core model behind this context. */
    CpuModel& cpu() { return *cpu_; }

  private:
    CpuModel* cpu_;
    bool yielded_ = false;
};

} // namespace cosim

#endif // COSIM_SOFTSDV_CORE_CONTEXT_HH
