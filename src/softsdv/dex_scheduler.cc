#include "softsdv/dex_scheduler.hh"

#include <algorithm>

#include "base/logging.hh"
#include "dragonhead/fsb_messages.hh"
#include "obs/trace_session.hh"

namespace cosim {

DexScheduler::DexScheduler(const DexParams& params, FrontSideBus* fsb,
                           DramModel* dram)
    : params_(params), fsb_(fsb), dram_(dram)
{
    fatal_if(params_.quantumInsts == 0, "DEX quantum must be nonzero");
    fatal_if(params_.coreFreqGhz <= 0.0,
             "DEX trace frequency must be positive");
}

void
DexScheduler::run(std::vector<CoreSlot>& slots)
{
    fatal_if(slots.empty(), "DEX scheduler needs at least one core slot");
    for (const CoreSlot& slot : slots) {
        fatal_if(slot.cpu == nullptr, "core slot without a CPU model");
        fatal_if(slot.task == nullptr, "core slot without a task");
    }

    auto emit = [&](msg::Type type, std::uint64_t payload) {
        if (fsb_ != nullptr)
            fsb_->issue(msg::encode(type, payload));
    };

    // One relaxed atomic load when no trace session is collecting; the
    // per-quantum span goes on the simulated-time axis (pid "simulated",
    // tid = virtual core id).
    obs::TraceSession& trace = obs::TraceSession::global();
    const double cycles_to_us = 1.0 / (params_.coreFreqGhz * 1000.0);

    emit(msg::Type::StartEmulation, 0);

    std::uint64_t total_insts_base = 0;
    for (CoreSlot& slot : slots)
        total_insts_base += slot.cpu->insts();

    bool any_alive = true;
    while (any_alive) {
        any_alive = false;
        Cycles max_round_cycles = 0;

        for (CoreSlot& slot : slots) {
            if (slot.done)
                continue;

            emit(msg::Type::SetCoreId, slot.cpu->id());

            slot.instsAtSliceStart = slot.cpu->insts();
            slot.cyclesAtSliceStart = slot.cpu->cycles();
            CoreContext ctx(slot.cpu);

            InstCount target = slot.instsAtSliceStart + params_.quantumInsts;
            while (slot.cpu->insts() < target) {
                if (!slot.task->step(ctx)) {
                    slot.done = true;
                    break;
                }
                if (ctx.yielded()) {
                    // The guest thread blocked (barrier / dependency);
                    // hand the processor to the next virtual core.
                    ctx.clearYield();
                    break;
                }
            }

            InstCount inst_delta =
                slot.cpu->insts() - slot.instsAtSliceStart;
            Cycles cycle_delta =
                slot.cpu->cycles() - slot.cyclesAtSliceStart;
            emit(msg::Type::InstRetired, inst_delta);
            emit(msg::Type::CyclesCompleted, cycle_delta);

            if (trace.active()) {
                trace.recordComplete(
                    obs::TraceDomain::Simulated,
                    static_cast<std::uint32_t>(slot.cpu->id()), "dex",
                    "quantum",
                    static_cast<double>(slot.cyclesAtSliceStart) *
                        cycles_to_us,
                    static_cast<double>(cycle_delta) * cycles_to_us,
                    static_cast<double>(inst_delta), true);
            }

            if (heartbeat_ != nullptr) {
                // One beat per quantum: relaxed stores only, so the
                // progress sampler sees it without the scheduler ever
                // blocking.
                heartbeat_->beat(
                    inst_delta,
                    static_cast<std::uint64_t>(
                        static_cast<double>(cycle_delta) /
                        params_.coreFreqGhz));
            }

            max_round_cycles = std::max(max_round_cycles, cycle_delta);
            ++slices_;
            if (!slot.done)
                any_alive = true;
        }

        if (dram_ != nullptr)
            dram_->endRound(max_round_cycles);
        ++rounds_;

        if (params_.maxTotalInsts != 0) {
            std::uint64_t executed = 0;
            for (CoreSlot& slot : slots)
                executed += slot.cpu->insts();
            panic_if(executed - total_insts_base > params_.maxTotalInsts,
                     "workload exceeded the %llu-instruction safety cap",
                     static_cast<unsigned long long>(
                         params_.maxTotalInsts));
        }
    }

    emit(msg::Type::StopEmulation, 0);
}

void
DexScheduler::addStats(stats::Group& group) const
{
    group.add("rounds", [this] { return double(rounds_); });
    group.add("slices", [this] { return double(slices_); });
    group.add("quantum_insts",
              [this] { return double(params_.quantumInsts); });
}

} // namespace cosim
