#include "mem/dram.hh"

#include <algorithm>

#include "base/logging.hh"

namespace cosim {

DramModel::DramModel(const DramParams& params)
    : params_(params), effectiveLatency_(params.baseLatency)
{
    fatal_if(params_.peakBytesPerCycle <= 0.0,
             "peak bandwidth must be positive");
    fatal_if(params_.prefetchThrottleFull <= params_.prefetchThrottleStart,
             "prefetch throttle window is empty");
}

void
DramModel::endRound(Cycles round_cycles)
{
    std::uint64_t demand = demandBytes_;
    std::uint64_t prefetch = prefetchBytes_;
    demandBytes_ = prefetchBytes_ = 0;
    std::uint64_t bytes = demand + prefetch;
    totalDemandBytes_ += demand;
    totalPrefetchBytes_ += prefetch;

    if (round_cycles == 0) {
        lastUtilization_ = 0.0;
        effectiveLatency_ = params_.baseLatency;
        prefetchAdmit_ = 1.0;
        return;
    }

    double supply =
        params_.peakBytesPerCycle * static_cast<double>(round_cycles);
    double rho = static_cast<double>(bytes) / supply;
    lastUtilization_ = std::min(rho, 1.0);

    // M/D/1-flavoured queueing inflation: latency grows as 1/(1-rho),
    // capped so a saturated round doesn't blow up the next round's cost.
    double inflation;
    if (rho >= 1.0) {
        inflation = params_.maxLatencyInflation;
    } else {
        inflation = 1.0 + rho / (2.0 * (1.0 - rho));
        inflation = std::min(inflation, params_.maxLatencyInflation);
    }
    effectiveLatency_ = static_cast<Cycles>(
        static_cast<double>(params_.baseLatency) * inflation);

    // Prefetch admission ramps from 1 down to 0 across the throttle window.
    if (rho <= params_.prefetchThrottleStart) {
        prefetchAdmit_ = 1.0;
    } else if (rho >= params_.prefetchThrottleFull) {
        prefetchAdmit_ = 0.0;
    } else {
        prefetchAdmit_ =
            (params_.prefetchThrottleFull - rho) /
            (params_.prefetchThrottleFull - params_.prefetchThrottleStart);
    }
}

void
DramModel::addStats(stats::Group& group) const
{
    group.add("demand_bytes", double(totalDemandBytes_));
    group.add("prefetch_bytes", double(totalPrefetchBytes_));
    group.add("utilization", lastUtilization_);
    group.add("effective_latency", double(effectiveLatency_));
    group.add("prefetch_admit", prefetchAdmit_);
}

void
DramModel::reset()
{
    demandBytes_ = prefetchBytes_ = 0;
    totalDemandBytes_ = totalPrefetchBytes_ = 0;
    lastUtilization_ = 0.0;
    effectiveLatency_ = params_.baseLatency;
    prefetchAdmit_ = 1.0;
}

} // namespace cosim
