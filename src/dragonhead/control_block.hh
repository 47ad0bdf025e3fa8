/**
 * @file
 * The CB (control block) FPGA of Dragonhead.
 *
 * "CB is responsible for configuring AF, CC, and collecting cache
 * performance data. A host computer reads performance data from CB every
 * 500 microseconds" (Section 3.1). The CB tracks instruction- and
 * time-synchronized statistics from the InstRetired / CyclesCompleted
 * messages, and closes a sample window every 500 us of emulated time so
 * the host sees a real-time MPKI series (this is what makes full-run
 * phase behaviour visible).
 */

#ifndef COSIM_DRAGONHEAD_CONTROL_BLOCK_HH
#define COSIM_DRAGONHEAD_CONTROL_BLOCK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "dragonhead/fsb_messages.hh"

namespace cosim {

/** CB configuration. */
struct ControlBlockParams
{
    /** Host poll period in microseconds of emulated time. */
    std::uint64_t samplePeriodUs = 500;

    /** Emulated core frequency used to turn cycles into time. */
    double coreFreqGhz = 3.0;

    /**
     * Counter-track name this CB samples under when a trace session is
     * active ("<label>.mpki"). Dragonhead derives a distinct label per
     * emulated configuration so sweep traces get one track each.
     */
    std::string traceLabel = "cb";
};

/** One host-visible sample (one 500 us window). */
struct Sample
{
    /** End of this window, in emulated microseconds. */
    double timeUs = 0.0;
    InstCount insts = 0;
    Cycles cycles = 0;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    /** Misses per kilo-instruction within this window. */
    double mpki() const
    {
        return insts == 0 ? 0.0
                          : 1000.0 * static_cast<double>(misses) /
                                static_cast<double>(insts);
    }
};

/** See file comment. */
class ControlBlock
{
  public:
    explicit ControlBlock(const ControlBlockParams& params);

    /**
     * Feed a consumed message (forwarded by the AF). @p accesses and
     * @p misses are the emulated LLC's counts (all CC slices together)
     * as of this message, which a window boundary polls.
     */
    void onMessage(const msg::Message& m, std::uint64_t accesses = 0,
                   std::uint64_t misses = 0);

    /** Totals within the emulation window. @{ */
    InstCount totalInsts() const { return totalInsts_; }
    Cycles totalCycles() const { return totalCycles_; }
    /** @} */

    /** The 500 us sample series collected so far. */
    const std::vector<Sample>& samples() const { return samples_; }

    void reset();

  private:
    /**
     * Flush the currently accumulating partial window into the series
     * (on StopEmulation; may leave a short final sample).
     */
    void flushWindow(std::uint64_t acc, std::uint64_t mis);

    /** Publish a just-closed window to an active trace session. */
    void traceSample(const Sample& s) const;

    ControlBlockParams params_;

    InstCount totalInsts_ = 0;
    Cycles totalCycles_ = 0;

    Cycles cyclesPerWindow_ = 0;
    Cycles windowCycleMark_ = 0;
    InstCount windowInstMark_ = 0;
    std::uint64_t windowAccessMark_ = 0;
    std::uint64_t windowMissMark_ = 0;
    std::uint64_t windowsClosed_ = 0;

    std::vector<Sample> samples_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_CONTROL_BLOCK_HH
