/**
 * @file
 * Main-memory timing model with bandwidth contention.
 *
 * The co-simulation is trace-like (the cache emulation is passive, as
 * Dragonhead's was), so memory timing does not feed back into the access
 * stream. What we do model -- because Figure 8 of the paper depends on it
 * -- is *bandwidth contention*: when many cores (or an aggressive
 * prefetcher) demand more bytes per cycle than the FSB/DRAM can deliver,
 * effective latency inflates and prefetches get throttled.
 *
 * The model is round-based. The DEX scheduler runs all cores for one
 * quantum ("round"), reporting traffic as it goes; at the round boundary
 * the model computes the utilization of the just-finished round with an
 * M/D/1-style queueing correction and publishes (a) the effective memory
 * latency and (b) the fraction of prefetch requests that will be admitted
 * during the next round.
 */

#ifndef COSIM_MEM_DRAM_HH
#define COSIM_MEM_DRAM_HH

#include <cstdint>

#include "base/stats.hh"
#include "base/types.hh"

namespace cosim {

/** Static parameters of the memory/bus subsystem. */
struct DramParams
{
    /** Unloaded memory access latency, in core cycles. */
    Cycles baseLatency = 300;

    /** Peak sustainable bandwidth in bytes per core cycle (all cores). */
    double peakBytesPerCycle = 2.0;

    /** Utilization above which prefetches start being dropped. */
    double prefetchThrottleStart = 0.60;

    /** Utilization at which all prefetches are dropped. */
    double prefetchThrottleFull = 0.95;

    /** Upper bound on the queueing latency multiplier. */
    double maxLatencyInflation = 6.0;
};

/**
 * Shared DRAM + bus bandwidth model. One instance is shared by all cores
 * of a simulated platform.
 */
class DramModel
{
  public:
    explicit DramModel(const DramParams& params = DramParams());

    /** Record @p bytes of demand (miss/writeback) traffic. */
    void addDemandTraffic(std::uint64_t bytes) { demandBytes_ += bytes; }

    /** Record @p bytes of prefetch traffic. */
    void addPrefetchTraffic(std::uint64_t bytes) { prefetchBytes_ += bytes; }

    /**
     * Effective latency of a demand memory access during the current
     * round, including the queueing penalty from last round's load.
     */
    Cycles demandLatency() const { return effectiveLatency_; }

    /**
     * Fraction of prefetch requests admitted in the current round
     * (1.0 = bandwidth is plentiful, 0.0 = bus saturated by demand).
     */
    double prefetchAdmitFraction() const { return prefetchAdmit_; }

    /**
     * Close the current round. @p round_cycles is the wall-clock length of
     * the round in core cycles (the slowest core's progress). Recomputes
     * the effective latency and prefetch admission for the next round.
     */
    void endRound(Cycles round_cycles);

    /** Utilization of the most recently closed round, in [0, 1]. */
    double lastUtilization() const { return lastUtilization_; }

    /** @name Lifetime totals @{ */
    std::uint64_t totalDemandBytes() const { return totalDemandBytes_; }
    std::uint64_t totalPrefetchBytes() const { return totalPrefetchBytes_; }
    /** @} */

    const DramParams& params() const { return params_; }

    /** Append the traffic/latency gauges to @p group. */
    void addStats(stats::Group& group) const;

    /** Return to the unloaded state and clear totals. */
    void reset();

  private:
    DramParams params_;

    /** Traffic of the current round, read and zeroed by endRound(). */
    std::uint64_t demandBytes_ = 0;
    std::uint64_t prefetchBytes_ = 0;
    std::uint64_t totalDemandBytes_ = 0;
    std::uint64_t totalPrefetchBytes_ = 0;

    double lastUtilization_ = 0.0;
    Cycles effectiveLatency_;
    double prefetchAdmit_ = 1.0;
};

} // namespace cosim

#endif // COSIM_MEM_DRAM_HH
