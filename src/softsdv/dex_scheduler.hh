/**
 * @file
 * DEX-style time-slice scheduler.
 *
 * SoftSDV's DEX mode runs N virtual cores on one physical processor by
 * letting each run natively for a slice, then saving state and switching.
 * Dragonhead, snooping the bus, is told which core owns each slice via
 * SetCoreId messages, and gets InstRetired / CyclesCompleted deltas at
 * slice boundaries so it can compute instruction-synchronized statistics.
 * This class reproduces that loop: round-robin over the live tasks, one
 * quantum of retired instructions per slice, messages on the bus at every
 * boundary, and a shared-memory round boundary for the DRAM contention
 * model. Every slice runs on the calling host thread, and cores issue
 * straight into the bus, so the bus sees transactions in exactly the
 * order the slices produce them.
 */

#ifndef COSIM_SOFTSDV_DEX_SCHEDULER_HH
#define COSIM_SOFTSDV_DEX_SCHEDULER_HH

#include <cstdint>
#include <vector>

#include "mem/dram.hh"
#include "mem/fsb.hh"
#include "softsdv/core_context.hh"
#include "softsdv/guest.hh"

namespace cosim {

/** Scheduler tuning. */
struct DexParams
{
    /** Retired instructions per slice before switching cores. */
    std::uint64_t quantumInsts = 50000;

    /**
     * Safety cap on total retired instructions (0 = none). A workload
     * that fails to terminate trips a panic instead of hanging the run.
     */
    std::uint64_t maxTotalInsts = 0;

    /**
     * Emulated core frequency used to place quantum spans on the trace's
     * simulated-time axis (matches ControlBlockParams::coreFreqGhz).
     */
    double coreFreqGhz = 3.0;
};

/** One virtual core with the task currently bound to it. */
struct CoreSlot
{
    CpuModel* cpu = nullptr;
    ThreadTask* task = nullptr;

    // Scheduler-private bookkeeping.
    bool done = false;
    InstCount instsAtSliceStart = 0;
    Cycles cyclesAtSliceStart = 0;
};

/** See file comment. */
class DexScheduler
{
  public:
    /**
     * @param params scheduler tuning
     * @param fsb bus for Start/Stop/SetCoreId/InstRetired/Cycles
     *        messages (nullptr = emit none)
     * @param dram shared memory model for round boundaries (may be null)
     */
    DexScheduler(const DexParams& params, FrontSideBus* fsb,
                 DramModel* dram);

    /** Run every slot's task to completion. */
    void run(std::vector<CoreSlot>& slots);

    /** Completed scheduling rounds (all live cores ran one slice). */
    std::uint64_t rounds() const { return rounds_; }

    /** Total slices executed. */
    std::uint64_t slices() const { return slices_; }

  private:
    DexParams params_;
    FrontSideBus* fsb_;
    DramModel* dram_;
    std::uint64_t rounds_ = 0;
    std::uint64_t slices_ = 0;
};

} // namespace cosim

#endif // COSIM_SOFTSDV_DEX_SCHEDULER_HH
