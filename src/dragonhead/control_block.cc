#include "dragonhead/control_block.hh"

#include "base/logging.hh"
#include "obs/trace_session.hh"

namespace cosim {

ControlBlock::ControlBlock(const ControlBlockParams& params)
    : params_(params)
{
    fatal_if(params_.samplePeriodUs == 0, "sample period must be nonzero");
    fatal_if(params_.coreFreqGhz <= 0.0, "core frequency must be positive");
    cyclesPerWindow_ = static_cast<Cycles>(
        static_cast<double>(params_.samplePeriodUs) * 1000.0 *
        params_.coreFreqGhz);
    fatal_if(cyclesPerWindow_ == 0, "sample window shorter than a cycle");
}

void
ControlBlock::traceSample(const Sample& s) const
{
    obs::TraceSession& trace = obs::TraceSession::global();
    if (!trace.active())
        return;
    // One counter track per CB: the host-visible real-time MPKI series,
    // on the simulated-time axis.
    trace.recordCounter(obs::TraceDomain::Simulated,
                        params_.traceLabel + ".mpki", s.timeUs, s.mpki());
}

void
ControlBlock::onMessage(const msg::Message& m, std::uint64_t accesses,
                        std::uint64_t misses)
{
    switch (m.type) {
      case msg::Type::StartEmulation:
        // Window accounting restarts at the emulation window boundary.
        windowCycleMark_ = totalCycles_;
        windowInstMark_ = totalInsts_;
        windowAccessMark_ = accesses;
        windowMissMark_ = misses;
        break;
      case msg::Type::StopEmulation:
        flushWindow(accesses, misses);
        break;
      case msg::Type::SetCoreId:
        break;
      case msg::Type::InstRetired:
        totalInsts_ += m.payload;
        break;
      case msg::Type::CyclesCompleted:
        totalCycles_ += m.payload;
        // Emulated time advances with cycles; close any windows the
        // advance completed. In the physical rig the host polled on its
        // own clock; cycle-synchronized windows are the deterministic
        // equivalent.
        while (totalCycles_ - windowCycleMark_ >= cyclesPerWindow_) {
            windowCycleMark_ += cyclesPerWindow_;
            ++windowsClosed_;

            Sample s;
            s.timeUs = static_cast<double>(windowsClosed_) *
                       static_cast<double>(params_.samplePeriodUs);
            s.cycles = cyclesPerWindow_;
            s.insts = totalInsts_ - windowInstMark_;
            s.accesses = accesses - windowAccessMark_;
            s.misses = misses - windowMissMark_;
            traceSample(s);
            samples_.push_back(s);

            windowInstMark_ = totalInsts_;
            windowAccessMark_ = accesses;
            windowMissMark_ = misses;
        }
        break;
    }
}

void
ControlBlock::flushWindow(std::uint64_t acc, std::uint64_t mis)
{
    Cycles partial = totalCycles_ - windowCycleMark_;
    InstCount insts = totalInsts_ - windowInstMark_;
    std::uint64_t accesses = acc - windowAccessMark_;
    std::uint64_t misses = mis - windowMissMark_;
    if (partial == 0 && insts == 0 && accesses == 0)
        return;

    Sample s;
    s.timeUs = static_cast<double>(windowsClosed_) *
                   static_cast<double>(params_.samplePeriodUs) +
               static_cast<double>(partial) /
                   (params_.coreFreqGhz * 1000.0);
    s.cycles = partial;
    s.insts = insts;
    s.accesses = accesses;
    s.misses = misses;
    traceSample(s);
    samples_.push_back(s);

    windowCycleMark_ = totalCycles_;
    windowInstMark_ = totalInsts_;
    windowAccessMark_ = acc;
    windowMissMark_ = mis;
}

void
ControlBlock::reset()
{
    totalInsts_ = 0;
    totalCycles_ = 0;
    windowCycleMark_ = 0;
    windowInstMark_ = 0;
    windowAccessMark_ = 0;
    windowMissMark_ = 0;
    windowsClosed_ = 0;
    samples_.clear();
}

} // namespace cosim
